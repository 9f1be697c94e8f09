package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// topologySeed fixes every workload's network. The topology is part of
// the benchmark's definition, like the rates and pool sizes: a run's
// --seed draws the tasks, chains, arrival instants, hold times and op
// scripts offered on that network, and those are averaged over enough
// operations per run that two seeds measure the same thing.
const topologySeed = 20180702

// encodeNetwork generates the workload's network and returns it as the
// instance document sftgen would write, so every consumer decodes its
// own metric-less copy exactly as a fresh process would.
func encodeNetwork(cfg netgen.Config) ([]byte, error) {
	net, err := netgen.Generate(cfg, newRand(topologySeed))
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	doc, err := json.Marshal(nfv.InstanceDoc{Network: net})
	if err != nil {
		return nil, fmt.Errorf("encode network: %w", err)
	}
	return doc, nil
}

// decodeNetwork returns a fresh network with no cached metric.
func decodeNetwork(doc []byte) (*nfv.Network, error) {
	var d nfv.InstanceDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("decode network: %w", err)
	}
	return d.Network, nil
}

// freshNetwork is the start of every set-up: generate the workload's
// network, decode a metric-less copy and build its metric cold, as a
// new process serving that instance would. It returns the instance
// document, for later cold starts, and the warm copy.
func freshNetwork(rc *runCtx, cfg netgen.Config) ([]byte, *nfv.Network, error) {
	doc, err := encodeNetwork(cfg)
	if err != nil {
		return nil, nil, err
	}
	net, err := decodeNetwork(doc)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	net.Metric()
	rc.layer["graph.apsp_ms"] = msOf(time.Since(t0))
	return doc, net, nil
}

// shape is one task class: destination count and chain length.
type shape struct{ dests, chain int }

// genTasks draws n tasks whose shapes follow pattern cyclically, so the
// class mix is exact and only the tasks inside a class vary with the
// seed.
func genTasks(net *nfv.Network, rng *rand.Rand, n int, pattern []shape) ([]nfv.Task, error) {
	tasks := make([]nfv.Task, n)
	for i := range tasks {
		s := pattern[i%len(pattern)]
		t, err := netgen.GenerateTask(net, rng, s.dests, s.chain)
		if err != nil {
			return nil, fmt.Errorf("generate task %d (%dx%d): %w", i, s.dests, s.chain, err)
		}
		tasks[i] = t
	}
	return tasks, nil
}

// planHash fingerprints generated inputs: equal seeds must give equal
// hashes, and the unit tests pin that.
func planHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("plan hash: %v", err)) // plans are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
