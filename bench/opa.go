package main

import (
	"fmt"
	"sync"
	"time"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/netgen"
)

// The OPA instance: twice the paper's pre-deployments, clustered
// receivers, and stage two started from RSA's random placement with
// Options.AggressiveOPA. Under the default options the paper's local
// gate let no move through on any instance tried while this was
// written (MSA or RSA start, mu 0.5 to 2, one to four times the
// pre-deployments), so the workloads' own solves time a stage two that
// does nothing; the probe is the one place where it works, and it
// fails the run if it stops doing so.
const (
	opaNodes   = 100
	opaSamples = 24
)

// opaCounter reads stage two's events from outside.
type opaCounter struct {
	mu                 sync.Mutex
	proposed, accepted int
	stage2             time.Duration
}

func (o *opaCounter) OnEvent(e core.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e.Kind {
	case core.EventMoveProposed:
		o.proposed++
	case core.EventMoveAccepted:
		o.accepted++
	case core.EventStage2End:
		o.stage2 += e.Duration
	}
}

// opaProbe fills core.opa_ms and the move counters. It runs in traced
// runs only, after the measured window.
func opaProbe(rc *runCtx) error {
	cfg := netgen.PaperConfig(opaNodes, 2)
	cfg.DeployedInstances = 2 * opaNodes
	net, err := netgen.Generate(cfg, newRand(topologySeed))
	if err != nil {
		return fmt.Errorf("opa probe: network: %w", err)
	}
	net.Metric()
	rng := newRand(rc.seed)
	var ms []float64
	total := &opaCounter{}
	for i := 0; i < opaSamples; i++ {
		task, err := netgen.GenerateClusteredTask(net, rng, 3, 4, 5)
		if err != nil {
			return fmt.Errorf("opa probe: task: %w", err)
		}
		c := &opaCounter{}
		t0 := time.Now()
		res, err := baseline.RSA(net, task, rng, core.Options{Observer: c, AggressiveOPA: true})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("opa probe: rsa: %w", err)
		}
		if err := net.Validate(res.Embedding); err != nil {
			rc.fail("opa probe: invalid embedding: %v", err)
		}
		if res.FinalCost > res.Stage1Cost {
			rc.fail("opa probe: stage two raised the cost: %v > %v", res.FinalCost, res.Stage1Cost)
		}
		ms = append(ms, msOf(c.stage2))
		total.proposed += c.proposed
		total.accepted += c.accepted
		rc.tr.record(rc.tr.newTrace(), 0, "probe.core.rsa_opa", t0, t1)
	}
	rc.layer["core.opa_ms"] = median(ms)
	rc.layer["core.opa_moves_proposed"] = float64(total.proposed)
	rc.layer["core.opa_moves_accepted"] = float64(total.accepted)
	if total.proposed == 0 {
		rc.fail("opa probe: stage two proposed no move over %d samples", opaSamples)
	}
	return nil
}
