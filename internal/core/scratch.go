package core

import (
	"sync"

	"sftree/internal/nfv"
)

// scratch is the one pooled workspace of a solve: everything the two
// stages need for the duration of a call and nothing they return. An
// entry point takes it once (getScratch) and hands it back on its way
// out, never by defer: a panic leaves the node-indexed arrays
// unrestored, and the scratch is dropped with it.
type scratch struct {
	// free is repairCapacity's free-capacity vector, meaningful at
	// server indices once fillFree has run.
	free []float64
	// hosts is the chain of the stage-one candidate being decoded.
	hosts []int
	// treePaths' workspace. Between calls every head entry is -1 and
	// every parent entry is unseen; a call restores the entries it
	// touched instead of clearing the arrays.
	head, tail, parent []int32 // node-indexed
	to, next           []int32 // two arcs per tree edge
	stack              []int32
	// insts backs state.placed, stage two's view of the placed
	// instances.
	insts []nfv.Instance
	// initialConnectionGroups' sets, destination nodes and connection
	// nodes, and the (node, destination) pairs, groups and members it
	// builds, valid until the next pass builds groups; markIndependent's
	// sets, the arcs under the embedded SFC and the connection nodes of
	// independent paths.
	dests, conns   marks
	pairs          []uint64
	groups         []connGroup
	members        []int
	sfcArcs, indep marks
	// embedding's staging area: every segment path end to end, and
	// where each starts.
	hops, offs []int
	// roots memoises the stage-one sweep's tree prices, and relocs the
	// capacity repair's relocation scans, for one solve.
	roots  rootPrices
	relocs relocMemo
	// st is the solve's state (newState); serve and tails back it, and
	// paths and pathNodes back the tails treePaths reads off a tree.
	// None of it reaches a Result: embedding copies what it returns.
	st        state
	serve     []int
	tails     [][]int
	paths     [][]int
	pathNodes []int
	// seen is the (stage, edge) bitmap of every pricing in the solve:
	// stage two's unchecked trial prices (price) and the validated price
	// of the embedding a solve starts from (checkedPrice).
	seen []uint64
}

// price is nfv.Cost on the scratch's bitmap.
func (sc *scratch) price(net *nfv.Network, e *nfv.Embedding) float64 {
	var bd nfv.CostBreakdown
	bd, sc.seen = net.CostWith(e, sc.seen)
	return bd.Total
}

// checkedPrice is nfv.ValidateCost on the scratch's bitmap: e's cost,
// or the constraint it breaks.
func (sc *scratch) checkedPrice(net *nfv.Network, e *nfv.Embedding) (float64, error) {
	var bd nfv.CostBreakdown
	var err error
	bd, sc.seen, err = net.ValidateCost(e, sc.seen)
	return bd.Total, err
}

// resize returns buf with length n, reallocated only when too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rootPrices is sweeper.treeCost's memo: the roots priced this solve,
// their prices (+Inf for a root some destination is unreachable from)
// and how many calls it answered.
type rootPrices struct {
	priced  marks
	cost    []float64 // node-indexed
	repeats int
}

func (p *rootPrices) reset(n int) {
	p.priced.reset(n)
	p.repeats = 0
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool, sized for n nodes.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.head) < n {
		sc.free = make([]float64, n)
		sc.roots.cost = make([]float64, n)
		sc.head = make([]int32, n)
		sc.tail = make([]int32, n)
		sc.parent = make([]int32, n)
		for v := range sc.head {
			sc.head[v] = -1
			sc.parent[v] = unseen
		}
	}
	return sc
}

// fillFree loads net's free capacity at every server into sc.free.
func (sc *scratch) fillFree(net *nfv.Network) {
	for _, v := range net.ServerList() {
		sc.free[v] = net.FreeCapacity(v)
	}
}

// marks is a set over [0, n) whose reset is a counter bump.
type marks struct {
	at  []uint32
	gen uint32
}

// reset empties the set and sizes it for members below n.
func (m *marks) reset(n int) {
	if len(m.at) < n {
		m.at, m.gen = make([]uint32, n), 0
	}
	if m.gen++; m.gen == 0 {
		clear(m.at)
		m.gen = 1
	}
}

func (m *marks) add(i int)      { m.at[i] = m.gen }
func (m *marks) has(i int) bool { return m.at[i] == m.gen }
