package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"sftree/internal/graph"
)

// journalGets counts move journals handed out by snapshot and
// journalNews the subset allocated fresh (per-ledger free list empty);
// gets-news journals were recycled. Process-global so the telemetry
// layer can report steady-state pool churn across every solve.
var journalGets, journalNews atomic.Int64

// JournalPoolStats reports the move-journal free-list traffic: total
// acquisitions and how many of them allocated a new journal.
func JournalPoolStats() (gets, news int64) {
	return journalGets.Load(), journalNews.Load()
}

// This file implements the incremental cost engine behind stage two.
//
// The naive evaluation path (state.cost, in naive_test.go)
// materializes a full nfv.Embedding — every metric path for every
// destination and level — and re-derives the placed-instance set per
// candidate move. The ledger instead mirrors the two components of
// objective (1a) incrementally:
//
//   - an instance ref-count per (vnf, node) pair, feeding a running
//     setup-cost sum and a per-node used-capacity array (so canHost
//     and instanceSetupCost are O(1));
//   - a ref-count per (stage, directed edge) pair, feeding a running
//     link-cost sum with exactly the multicast deduplication the cost
//     oracle applies.
//
// Both ref-count families live in flat arrays, not maps: instance
// slots are indexed vnf*n+node, edge slots level*arcs+arc where arc
// is the canonical CSR arc for the directed hop. Map hashing was the
// single largest line item in the move-evaluation profile; the flat
// layout removes it and lets a revert run as plain stores.
//
// A move touches only its group's segments, so applying it updates
// O(|group| * path length) counters instead of recosting the world.
// Every mutation is recorded in a journal; rejecting a move reverts
// the journal, restoring the running sums bit-for-bit from snapshots.
// Journals are pooled on the ledger (releaseJournal) so steady-state
// move evaluation allocates nothing. The naive path is preserved as
// the test-only reference engine (naive_test.go) and the two are
// asserted equivalent in equivalence_test.go.

// stageEdge identifies a (stage, directed edge) traversal that does
// not correspond to a graph edge; such walks are priced +Inf and kept
// in the ledger's overflow map, which is empty in normal operation.
type stageEdge struct {
	level int
	u, v  int
}

// ledger is the incremental mirror of objective (1a) for one state.
type ledger struct {
	metric *graph.Metric
	// csr is the substrate graph in CSR form; arc positions double as
	// canonical directed-edge ids, and csr.Cost prices traversals (the
	// cheapest parallel arc is chosen as canonical, so pricing matches
	// the cost oracle's cheapest-parallel-edge rule).
	csr  *graph.CSR
	arcs int
	n    int
	// edgeRef counts walk traversals per (stage, directed edge):
	// index level*arcs + arc, levels 0..k (k is the tail level).
	edgeRef []int32
	// badRef is the overflow for traversals with no underlying edge.
	badRef map[stageEdge]int
	// instRef counts (destination, level) subscriptions per new
	// instance, indexed vnf*n + node; pre-deployed instances are never
	// entered.
	instRef []int32
	// usedCap is the demand the current new instances consume per node,
	// on top of what the network reports used.
	usedCap  []float64
	setupSum float64
	linkSum  float64
	// brokenSegs counts segments with no usable route (missing metric
	// path or empty tail): the cost is undefined while any exist.
	brokenSegs int
	// infEdges counts referenced (stage, edge) pairs that are not
	// graph edges; the oracle prices such walks at +Inf.
	infEdges int
	// jrFree recycles journals across moves; see releaseJournal.
	jrFree []*journal
}

// journal records every ledger and state mutation of one move so it
// can be reverted exactly. Sums are restored from snapshots, so a
// revert is bit-for-bit, not arithmetically approximate.
type journal struct {
	serve    []journalServe
	tails    []journalTail
	edges    []journalRef
	insts    []journalRef
	bad      []journalBad
	caps     []journalCap
	setupSum float64
	linkSum  float64
	broken   int
	infEdges int
}

type journalServe struct{ di, j, old int }

type journalTail struct {
	di  int
	old []int
}

// journalRef restores one flat ref-count slot (edgeRef or instRef).
type journalRef struct{ idx, old int32 }

type journalBad struct {
	key stageEdge
	old int
}

type journalCap struct {
	node int
	old  float64
}

// reset truncates the journal for reuse, dropping tail references so
// pooled journals do not pin dead tail slices.
func (jr *journal) reset() {
	jr.serve = jr.serve[:0]
	for i := range jr.tails {
		jr.tails[i].old = nil
	}
	jr.tails = jr.tails[:0]
	jr.edges = jr.edges[:0]
	jr.insts = jr.insts[:0]
	jr.bad = jr.bad[:0]
	jr.caps = jr.caps[:0]
}

// ensureLedger builds the ledger from the current assignment if the
// state does not carry one yet.
func (s *state) ensureLedger() {
	if s.led != nil {
		return
	}
	metric := s.net.Metric()
	csr := s.net.Graph().CSR()
	n := s.net.NumNodes()
	k := s.task.K()
	led := &ledger{
		metric:  metric,
		csr:     csr,
		arcs:    csr.NumArcs(),
		n:       n,
		edgeRef: make([]int32, (k+1)*csr.NumArcs()),
		badRef:  make(map[stageEdge]int),
		instRef: make([]int32, s.net.CatalogSize()*n),
		usedCap: make([]float64, n),
	}
	s.led = led
	for di := range s.tail {
		row := s.row(di)
		for j := 1; j <= k; j++ {
			s.ledgerAddInstance(s.task.Chain[j-1], row[j], nil)
		}
		for j := 0; j < k; j++ {
			s.ledgerAddChainSeg(j, row[j], row[j+1], nil)
		}
		s.ledgerAddTail(di, nil)
	}
}

// totalCost returns the ledger's view of objective (1a), mirroring
// state.cost: an error when some segment has no route at all, +Inf
// when a walk crosses a non-edge, the running sum otherwise.
func (s *state) totalCost() (float64, error) {
	s.ensureLedger()
	if s.led.brokenSegs > 0 {
		return 0, fmt.Errorf("%w: %d unroutable segments", ErrNoFeasible, s.led.brokenSegs)
	}
	if s.led.infEdges > 0 {
		return math.Inf(1), nil
	}
	return s.led.setupSum + s.led.linkSum, nil
}

// snapshot starts a journal for one move, reusing a pooled one when
// available. Callers that are done with a journal — after revert, or
// once an accepted move is final — should hand it back with
// releaseJournal so steady-state move evaluation allocates nothing.
func (s *state) snapshot() *journal {
	led := s.led
	var jr *journal
	journalGets.Add(1)
	if n := len(led.jrFree); n > 0 {
		jr = led.jrFree[n-1]
		led.jrFree = led.jrFree[:n-1]
		jr.reset()
	} else {
		journalNews.Add(1)
		jr = new(journal)
	}
	jr.setupSum = led.setupSum
	jr.linkSum = led.linkSum
	jr.broken = led.brokenSegs
	jr.infEdges = led.infEdges
	return jr
}

// releaseJournal returns jr to the ledger's free list. The journal
// must not be used (in particular, reverted) afterwards.
func (s *state) releaseJournal(jr *journal) {
	if s.led != nil {
		s.led.jrFree = append(s.led.jrFree, jr)
	}
}

// revert undoes every mutation recorded in jr, newest first, and
// restores the running sums from the snapshots.
func (s *state) revert(jr *journal) {
	led := s.led
	for i := len(jr.edges) - 1; i >= 0; i-- {
		led.edgeRef[jr.edges[i].idx] = jr.edges[i].old
	}
	for i := len(jr.insts) - 1; i >= 0; i-- {
		led.instRef[jr.insts[i].idx] = jr.insts[i].old
	}
	for i := len(jr.bad) - 1; i >= 0; i-- {
		e := jr.bad[i]
		if e.old == 0 {
			delete(led.badRef, e.key)
		} else {
			led.badRef[e.key] = e.old
		}
	}
	for i := len(jr.caps) - 1; i >= 0; i-- {
		led.usedCap[jr.caps[i].node] = jr.caps[i].old
	}
	for i := len(jr.serve) - 1; i >= 0; i-- {
		e := jr.serve[i]
		s.row(e.di)[e.j] = e.old
	}
	for i := len(jr.tails) - 1; i >= 0; i-- {
		s.tail[jr.tails[i].di] = jr.tails[i].old
	}
	led.setupSum = jr.setupSum
	led.linkSum = jr.linkSum
	led.brokenSegs = jr.broken
	led.infEdges = jr.infEdges
}

// ledgerAddInstance subscribes one (destination, level) to the
// instance of f at node; the 0->1 transition prices its setup cost
// and reserves capacity. Pre-deployed instances cost nothing and are
// not tracked.
func (s *state) ledgerAddInstance(f, node int, jr *journal) {
	if s.net.IsDeployed(f, node) {
		return
	}
	led := s.led
	idx := int32(f*led.n + node)
	old := led.instRef[idx]
	if jr != nil {
		jr.insts = append(jr.insts, journalRef{idx, old})
	}
	led.instRef[idx] = old + 1
	if old == 0 {
		led.setupSum += s.net.SetupCost(f, node)
		if vnf, err := s.net.VNF(f); err == nil {
			if jr != nil {
				jr.caps = append(jr.caps, journalCap{node, led.usedCap[node]})
			}
			led.usedCap[node] += vnf.Demand
		}
	}
}

// ledgerRemoveInstance drops one subscription; the 1->0 transition
// releases the setup cost and the reserved capacity.
func (s *state) ledgerRemoveInstance(f, node int, jr *journal) {
	if s.net.IsDeployed(f, node) {
		return
	}
	led := s.led
	idx := int32(f*led.n + node)
	old := led.instRef[idx]
	if jr != nil {
		jr.insts = append(jr.insts, journalRef{idx, old})
	}
	led.instRef[idx] = old - 1
	if old == 1 {
		led.setupSum -= s.net.SetupCost(f, node)
		if vnf, err := s.net.VNF(f); err == nil {
			if jr != nil {
				jr.caps = append(jr.caps, journalCap{node, led.usedCap[node]})
			}
			led.usedCap[node] -= vnf.Demand
		}
	}
}

// ledgerAddEdge references one (stage, directed edge) traversal; the
// 0->1 transition adds its link cost (or marks an infinite walk).
func (s *state) ledgerAddEdge(level, u, v int, jr *journal) {
	led := s.led
	arc := led.csr.Arc(u, v)
	if arc < 0 {
		key := stageEdge{level: level, u: u, v: v}
		old := led.badRef[key]
		if jr != nil {
			jr.bad = append(jr.bad, journalBad{key, old})
		}
		led.badRef[key] = old + 1
		if old == 0 {
			led.infEdges++
		}
		return
	}
	idx := int32(level)*int32(led.arcs) + arc
	old := led.edgeRef[idx]
	if jr != nil {
		jr.edges = append(jr.edges, journalRef{idx, old})
	}
	led.edgeRef[idx] = old + 1
	if old == 0 {
		led.linkSum += led.csr.Cost[arc]
	}
}

// ledgerRemoveEdge drops one traversal; the 1->0 transition releases
// its link cost.
func (s *state) ledgerRemoveEdge(level, u, v int, jr *journal) {
	led := s.led
	arc := led.csr.Arc(u, v)
	if arc < 0 {
		key := stageEdge{level: level, u: u, v: v}
		old := led.badRef[key]
		if jr != nil {
			jr.bad = append(jr.bad, journalBad{key, old})
		}
		if old == 1 {
			delete(led.badRef, key)
			led.infEdges--
		} else {
			led.badRef[key] = old - 1
		}
		return
	}
	idx := int32(level)*int32(led.arcs) + arc
	old := led.edgeRef[idx]
	if jr != nil {
		jr.edges = append(jr.edges, journalRef{idx, old})
	}
	led.edgeRef[idx] = old - 1
	if old == 1 {
		led.linkSum -= led.csr.Cost[arc]
	}
}

// ledgerAddChainSeg references the metric shortest path from -> to at
// the given level; an unreachable pair marks the segment broken.
func (s *state) ledgerAddChainSeg(level, from, to int, jr *journal) {
	ok := s.led.metric.EachHop(from, to, func(x, y int) {
		s.ledgerAddEdge(level, x, y, jr)
	})
	if !ok {
		s.led.brokenSegs++
	}
}

// ledgerRemoveChainSeg releases the segment added by
// ledgerAddChainSeg for the same endpoints.
func (s *state) ledgerRemoveChainSeg(level, from, to int, jr *journal) {
	ok := s.led.metric.EachHop(from, to, func(x, y int) {
		s.ledgerRemoveEdge(level, x, y, jr)
	})
	if !ok {
		s.led.brokenSegs--
	}
}

// ledgerAddTail references destination di's current explicit tail at
// level k; an empty tail marks the segment broken.
func (s *state) ledgerAddTail(di int, jr *journal) {
	tail := s.tail[di]
	if len(tail) == 0 {
		s.led.brokenSegs++
		return
	}
	k := s.task.K()
	for i := 1; i < len(tail); i++ {
		s.ledgerAddEdge(k, tail[i-1], tail[i], jr)
	}
}

// ledgerRemoveTail releases destination di's current tail.
func (s *state) ledgerRemoveTail(di int, jr *journal) {
	tail := s.tail[di]
	if len(tail) == 0 {
		s.led.brokenSegs--
		return
	}
	k := s.task.K()
	for i := 1; i < len(tail); i++ {
		s.ledgerRemoveEdge(k, tail[i-1], tail[i], jr)
	}
}

// applyMoveInc performs applyMove against the live ledger and returns
// the journal that undoes it. Semantics match applyMove followed by a
// full recost: only the group's own segments change.
func (s *state) applyMoveInc(j int, grp connGroup, e int, metric *graph.Metric) *journal {
	s.ensureLedger()
	jr := s.snapshot()
	k := s.task.K()
	f := s.task.Chain[j-1]
	for _, di := range grp.members {
		row := s.row(di)
		old := row[j]
		s.ledgerRemoveInstance(f, old, jr)
		s.ledgerRemoveChainSeg(j-1, row[j-1], old, jr)
		if j < k {
			s.ledgerRemoveChainSeg(j, old, row[j+1], jr)
		} else {
			s.ledgerRemoveTail(di, jr)
		}
		jr.serve = append(jr.serve, journalServe{di, j, old})
		row[j] = e
		s.ledgerAddInstance(f, e, jr)
		s.ledgerAddChainSeg(j-1, row[j-1], e, jr)
		if j < k {
			s.ledgerAddChainSeg(j, e, row[j+1], jr)
		}
	}
	if j != k {
		return jr
	}
	// Last level: rewrite the explicit tails exactly as applyMove does
	// (new route e -> connection node -> old downstream suffix).
	head := metric.Path(e, grp.node)
	for _, di := range grp.members {
		old := s.tail[di]
		jr.tails = append(jr.tails, journalTail{di, old})
		idx := -1
		for i, v := range old {
			if v == grp.node {
				idx = i
				break
			}
		}
		if idx == -1 {
			s.tail[di] = metric.Path(e, s.task.Destinations[di])
		} else {
			nt := make([]int, 0, len(head)+len(old)-idx-1)
			nt = append(nt, head...)
			nt = append(nt, old[idx+1:]...)
			s.tail[di] = nt
		}
		s.ledgerAddTail(di, jr)
	}
	return jr
}
