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
	// initialConnectionGroups' sets: destination nodes, connection
	// nodes already grouped, and the arcs under the embedded SFC.
	dests, conns, sfcArcs marks
	// embedding's staging area: every segment path end to end, and
	// where each starts.
	hops, offs []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool, sized for n nodes.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.head) < n {
		sc.free = make([]float64, n)
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
