// Package core implements the paper's two-stage approximation
// algorithm for optimal service function tree embedding: stage one
// (MSA, Algorithm 2) embeds the SFC over the expanded MOD network and
// connects the last VNF to all destinations with a Steiner tree; stage
// two (OPA, Algorithm 3) grows the SFC into an SFT by adding new VNF
// instances in inverted chain order wherever that lowers the global
// traffic delivery cost.
package core

import (
	"errors"
	"fmt"

	"sftree/internal/nfv"
)

var (
	// ErrNoFeasible reports that no feasible embedding exists (for
	// example, insufficient capacity anywhere for some chain VNF, or
	// destinations unreachable from every candidate host).
	ErrNoFeasible = errors.New("core: no feasible embedding")
)

// state is the mutable solution the two stages share: per destination,
// the node serving each chain level, plus the explicit last-stage
// route ("tail") from the level-k instance to the destination. Tails
// are kept as explicit paths because stage one routes them along a
// shared Steiner tree, which per-destination shortest paths would not
// reproduce.
type state struct {
	net  *nfv.Network
	task nfv.Task
	// serve[di][j] is the node serving chain level j for destination
	// di; serve[di][0] is always the source.
	serve [][]int
	// tail[di] is the node path from serve[di][k] to the destination,
	// inclusive of both endpoints.
	tail [][]int
	// led is the incremental cost engine (see ledger.go), attached
	// lazily by stage two. It always reflects serve/tail exactly; any
	// mutation outside applyMoveInc must rebuild it.
	led *ledger
}

func newState(net *nfv.Network, task nfv.Task) *state {
	k := task.K()
	s := &state{
		net:   net,
		task:  task,
		serve: make([][]int, len(task.Destinations)),
		tail:  make([][]int, len(task.Destinations)),
	}
	for di := range task.Destinations {
		s.serve[di] = make([]int, k+1)
		s.serve[di][0] = task.Source
	}
	return s
}

// placedInstances derives the set of in-use new instances from the
// serving assignment: one instance per distinct (vnf, node) pair that
// some destination is routed through and that is not pre-deployed.
// Orphaned instances (no subscribers) vanish automatically.
func (s *state) placedInstances() []nfv.Instance {
	k := s.task.K()
	seen := make(map[[2]int]bool)
	var out []nfv.Instance
	for di := range s.serve {
		for j := 1; j <= k; j++ {
			f := s.task.Chain[j-1]
			node := s.serve[di][j]
			key := [2]int{f, node}
			if seen[key] || s.net.IsDeployed(f, node) {
				continue
			}
			seen[key] = true
			out = append(out, nfv.Instance{VNF: f, Node: node, Level: j})
		}
	}
	return out
}

// canHost reports whether chain VNF f can serve traffic from node v in
// the current state: it is pre-deployed, already placed new, or there
// is room to place it. The answer comes from the ledger's ref-count
// and capacity accumulators in O(1), so the caller must have attached
// one (ensureLedger).
func (s *state) canHost(f, v int) bool {
	if !s.net.IsServer(v) {
		return false
	}
	if s.net.IsDeployed(f, v) {
		return true
	}
	led := s.led
	if led.instRef[f*led.n+v] > 0 {
		return true
	}
	vnf, err := s.net.VNF(f)
	if err != nil {
		return false
	}
	return led.freeBase[v]-led.usedCap[v]+1e-9 >= vnf.Demand
}

// embedding materializes the state into an nfv.Embedding: chain
// segments follow metric shortest paths, the last segment follows the
// stored tail.
func (s *state) embedding() (*nfv.Embedding, error) {
	k := s.task.K()
	metric := s.net.Metric()
	e := &nfv.Embedding{
		Task:         s.task.CloneTask(),
		NewInstances: s.placedInstances(),
		Walks:        make([]nfv.Walk, len(s.task.Destinations)),
	}
	for di := range s.task.Destinations {
		w := make(nfv.Walk, 0, k+1)
		for j := 0; j < k; j++ {
			p := metric.Path(s.serve[di][j], s.serve[di][j+1])
			if p == nil {
				return nil, fmt.Errorf("%w: no path %d->%d at level %d",
					ErrNoFeasible, s.serve[di][j], s.serve[di][j+1], j)
			}
			w = append(w, nfv.Segment{Level: j, Path: p})
		}
		if len(s.tail[di]) == 0 {
			return nil, fmt.Errorf("%w: missing tail for destination %d",
				ErrNoFeasible, s.task.Destinations[di])
		}
		w = append(w, nfv.Segment{Level: k, Path: append([]int(nil), s.tail[di]...)})
		e.Walks[di] = w
	}
	return e, nil
}

// cost evaluates the paper's objective for the current state.
func (s *state) cost() (float64, error) {
	e, err := s.embedding()
	if err != nil {
		return 0, err
	}
	return s.net.Cost(e).Total, nil
}
