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
	"slices"

	"sftree/internal/graph"
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
	// price is the nfv.Cost of the embedding serve and tail materialise
	// to: set by whoever priced them (stageOne, optimize) and by every
	// accepted stage-two move.
	price float64
	// placed answers canHost and instanceSetupCost: the new instances in
	// first-subscription order, listed by runOPAPass and again after
	// every accepted move.
	placed []nfv.Instance
	// undo is what the last applyMove overwrote, for undoMove.
	undo []overwrite
	sc   *scratch
}

// overwrite is one destination's state before a move: its level-j
// server and its tail.
type overwrite struct {
	di, j, node int
	tail        []int
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
// (destination-major, then level). Orphaned instances (no subscribers)
// vanish automatically.
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

// listPlaced rebuilds placed from the current assignment.
func (s *state) listPlaced() {
	s.placed = s.appendPlaced(s.sc.insts[:0])
	s.sc.insts = s.placed
}

// hosted reports whether the state has placed a new instance of f on
// v, and the demand its new instances reserve there, added in placed
// order.
func (s *state) hosted(f, v int) (bool, float64) {
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

// applyMove re-homes the group's members onto a new level-j instance
// at node e, recording what it overwrites for undoMove. For the last
// level the explicit tails are rewritten (the new route runs e ->
// connection node -> old downstream suffix); for inner levels only the
// serving assignment changes, and the walk segments follow metric
// paths automatically.
func (s *state) applyMove(j int, grp connGroup, e int, metric *graph.Metric) {
	s.undo = s.undo[:0]
	for _, di := range grp.members {
		row := s.row(di)
		s.undo = append(s.undo, overwrite{di: di, j: j, node: row[j], tail: s.tail[di]})
		row[j] = e
	}
	if j != s.task.K() {
		return
	}
	head := metric.Path(e, grp.node)
	for _, di := range grp.members {
		old := s.tail[di]
		idx := slices.Index(old, grp.node)
		if idx == -1 {
			// Member does not route through the connection node (should
			// not happen; keep a safe fallback route).
			s.tail[di] = metric.Path(e, s.task.Destinations[di])
			continue
		}
		nt := make([]int, 0, len(head)+len(old)-idx-1)
		nt = append(nt, head...)
		s.tail[di] = append(nt, old[idx+1:]...)
	}
}

// undoMove writes back what the last applyMove overwrote, newest
// first. That restores the state exactly: a tail is only ever
// replaced, never written in place, so the recorded slice still holds
// the old route.
func (s *state) undoMove() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		u := s.undo[i]
		s.row(u.di)[u.j] = u.node
		s.tail[u.di] = u.tail
	}
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
