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
	// serve holds one row of w = k+1 nodes per destination, end to end:
	// row(di)[j] is the node serving chain level j for destination di,
	// and row(di)[0] is always the source.
	serve []int
	w     int
	// tail[di] is the node path from row(di)[k] to the destination,
	// inclusive of both endpoints.
	tail [][]int
	// led is the incremental cost engine (see ledger.go), attached at
	// stage two's first proposed move. It always reflects serve/tail
	// exactly; any mutation outside applyMoveInc must rebuild it.
	led *ledger
	// placed is what answers canHost and instanceSetupCost until then:
	// the new instances in first-subscription order, listed by
	// runOPAPass. Without a ledger nothing moves, so it stays exact.
	placed []nfv.Instance
	sc     *scratch
}

func newState(net *nfv.Network, task nfv.Task, sc *scratch) *state {
	w := task.K() + 1
	s := &state{
		net:   net,
		task:  task,
		serve: make([]int, len(task.Destinations)*w),
		w:     w,
		tail:  make([][]int, len(task.Destinations)),
		sc:    sc,
	}
	for di := range task.Destinations {
		s.serve[di*w] = task.Source
	}
	return s
}

// row is destination di's serving nodes, levels 0..k.
func (s *state) row(di int) []int { return s.serve[di*s.w : (di+1)*s.w] }

// repeatsSegment reports whether destination di's chain segment j has
// the endpoints of the previous destination's — every segment of every
// destination but the first, for a stage-one state — and so the same
// metric path.
func (s *state) repeatsSegment(di, j int) bool {
	at := di*s.w + j
	return di > 0 && s.serve[at-s.w] == s.serve[at] && s.serve[at-s.w+1] == s.serve[at+1]
}

// appendPlaced appends the in-use new instances to dst: one per
// distinct (vnf, node) pair that some destination is routed through
// and that is not pre-deployed, in first-subscription order
// (destination-major, then level) — the order the ledger reserves
// their capacity in. Orphaned instances (no subscribers) vanish
// automatically.
func (s *state) appendPlaced(dst []nfv.Instance) []nfv.Instance {
	for di := range s.task.Destinations {
		row := s.row(di)
		for j := 1; j < s.w; j++ {
			f, node := s.task.Chain[j-1], row[j]
			// A chain lists distinct VNFs, so the previous destination
			// using the same node at this level settled the pair.
			if di > 0 && s.serve[(di-1)*s.w+j] == node {
				continue
			}
			if s.net.IsDeployed(f, node) || placedAt(dst, f, node) {
				continue
			}
			dst = append(dst, nfv.Instance{VNF: f, Node: node, Level: j})
		}
	}
	return dst
}

// placedAt reports whether insts lists an instance of f on node v; a
// state places at most k instances per distinct chain, so a scan beats
// a set.
func placedAt(insts []nfv.Instance, f, v int) bool {
	for _, in := range insts {
		if in.VNF == f && in.Node == v {
			return true
		}
	}
	return false
}

// hosted reports whether the state has placed a new instance of f on
// v, and the demand its new instances reserve there. The ledger's
// counters answer in O(1) once attached; before that the placed list
// does, adding the demands in the order ensureLedger would, so both
// give canHost the same float.
func (s *state) hosted(f, v int) (bool, float64) {
	if led := s.led; led != nil {
		return led.instRef[f*led.n+v] > 0, led.usedCap[v]
	}
	found, used := false, 0.0
	for _, in := range s.placed {
		if in.Node != v {
			continue
		}
		found = found || in.VNF == f
		if vnf, err := s.net.VNF(in.VNF); err == nil {
			used += vnf.Demand
		}
	}
	return found, used
}

// canHost reports whether chain VNF f can serve traffic from node v in
// the current state: it is pre-deployed, already placed new, or there
// is room to place it.
func (s *state) canHost(f, v int) bool {
	if !s.net.IsServer(v) {
		return false
	}
	if s.net.IsDeployed(f, v) {
		return true
	}
	placed, used := s.hosted(f, v)
	if placed {
		return true
	}
	vnf, err := s.net.VNF(f)
	if err != nil {
		return false
	}
	return s.net.FreeCapacity(v)-used+1e-9 >= vnf.Demand
}

// embedding materializes the state into an nfv.Embedding: chain
// segments follow metric shortest paths, the last segment follows the
// stored tail. Every path lies in one backing array and every segment
// in another, each cut to its own capacity, so appending to one
// reallocates it and no two share an element. A chain segment that
// repeats the previous destination's is copied from it instead of
// walked again.
func (s *state) embedding() (*nfv.Embedding, error) {
	k, w := s.task.K(), s.w
	metric := s.net.Metric()
	hops, offs := s.sc.hops[:0], s.sc.offs[:0]
	for di, d := range s.task.Destinations {
		row := s.row(di)
		for j := 0; j < k; j++ {
			at := len(hops)
			if prev := len(offs) - w; s.repeatsSegment(di, j) {
				hops = append(hops, hops[offs[prev]:offs[prev+1]]...)
			} else {
				hops = append(hops, row[j])
				if !metric.EachHop(row[j], row[j+1], func(_, y int) { hops = append(hops, y) }) {
					return nil, fmt.Errorf("%w: no path %d->%d at level %d",
						ErrNoFeasible, row[j], row[j+1], j)
				}
			}
			offs = append(offs, at)
		}
		if len(s.tail[di]) == 0 {
			return nil, fmt.Errorf("%w: missing tail for destination %d", ErrNoFeasible, d)
		}
		offs = append(offs, len(hops))
		hops = append(hops, s.tail[di]...)
	}
	offs = append(offs, len(hops))
	s.sc.hops, s.sc.offs = hops, offs

	paths := append([]int(nil), hops...)
	segs := make([]nfv.Segment, len(offs)-1)
	for i := range segs {
		segs[i] = nfv.Segment{Level: i % w, Path: paths[offs[i]:offs[i+1]:offs[i+1]]}
	}
	e := &nfv.Embedding{
		Task:         s.task.CloneTask(),
		NewInstances: s.appendPlaced(nil),
		Walks:        make([]nfv.Walk, len(s.task.Destinations)),
	}
	for di := range e.Walks {
		e.Walks[di] = segs[di*w : (di+1)*w : (di+1)*w]
	}
	return e, nil
}
