package steiner

import (
	"fmt"
	"math/bits"

	"sftree/internal/graph"
)

// MaxExactTerminals caps the terminals of an exact tree; the DP is
// exponential (3^t) in their number. A DWTable over D reads trees over
// D plus one node, so D holds at most MaxExactTerminals-1 of them.
const MaxExactTerminals = 16

// DWTable is the Dreyfus-Wagner dynamic program over a terminal set D,
// O(3^|D| * n + 2^|D| * n^2), run once: for every node v it holds the
// exact cost of a minimum Steiner tree spanning D plus v, and how to
// rebuild one. That answers "what does it cost to hang the whole
// destination set off host v" for every candidate host at once, which
// the best-known reference solver sweeps.
type DWTable struct {
	g     *graph.Graph
	m     *graph.Metric
	terms []int
	n     int
	full  int // the mask of every terminal
	// cost[mask*n+v] is the cheapest tree spanning the D-subset mask
	// plus v; how[mask*n+v] is the step that reached it.
	cost []float64
	how  []step
}

// step is how the DP reached a (mask, v) entry: v is mask's single
// terminal (leaf), a shortest path from v to the tree at node arg
// (extend), or the trees over arg and mask^arg, both at v (merge).
type step struct {
	kind int8
	arg  int32
}

const (
	leaf int8 = iota
	extend
	merge
)

// NewDWTable runs the Dreyfus-Wagner DP over terminals. It returns
// ErrTooManyTerminals beyond MaxExactTerminals-1 terminals and
// ErrUnreachable when the terminals are not mutually reachable.
func NewDWTable(g *graph.Graph, m *graph.Metric, terminals []int) (*DWTable, error) {
	terminals = dedupTerminals(terminals)
	switch {
	case len(terminals) == 0:
		return nil, ErrNoTerminals
	case len(terminals) > MaxExactTerminals-1:
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyTerminals, len(terminals), MaxExactTerminals-1)
	}
	for _, a := range terminals[1:] {
		if m.Dist[terminals[0]][a] == graph.Inf {
			return nil, fmt.Errorf("%w: %d and %d", ErrUnreachable, terminals[0], a)
		}
	}
	n := g.NumNodes()
	full := 1<<len(terminals) - 1
	t := &DWTable{g: g, m: m, terms: terminals, n: n, full: full, cost: make([]float64, (full+1)*n), how: make([]step, (full+1)*n)}
	for mask := 1; mask <= full; mask++ {
		row, how := t.cost[mask*n:(mask+1)*n], t.how[mask*n:(mask+1)*n]
		if mask&(mask-1) == 0 {
			term := terminals[bits.TrailingZeros(uint(mask))]
			copy(row, m.Dist[term])
			for v := range how {
				how[v] = step{extend, int32(term)}
			}
			row[term], how[term] = 0, step{leaf, 0}
			continue
		}
		for v := range row {
			row[v] = graph.Inf
		}
		// Merge: split mask into two halves meeting at v, each once.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue
			}
			ds, do := t.cost[sub*n:(sub+1)*n], t.cost[other*n:(other+1)*n]
			for v := range row {
				if c := ds[v] + do[v]; c < row[v] {
					row[v], how[v] = c, step{merge, int32(sub)}
				}
			}
		}
		// Extend: row[v] = min_u row[u] + d(u,v). One pass suffices
		// because d is a metric: an entry it lowers never lowers another.
		for v := range row {
			for u := 0; u < n; u++ {
				if u == v || row[u] == graph.Inf {
					continue
				}
				if c := row[u] + m.Dist[u][v]; c < row[v] {
					row[v], how[v] = c, step{extend, int32(u)}
				}
			}
		}
	}
	return t, nil
}

// Cost is the exact cost of a minimum Steiner tree spanning the
// table's terminals plus v; graph.Inf when v cannot reach them.
func (t *DWTable) Cost(v int) float64 {
	return t.cost[t.full*t.n+v]
}

// Tree rebuilds a minimum Steiner tree spanning the table's terminals
// plus v, at cost Cost(v).
func (t *DWTable) Tree(v int) (Tree, error) {
	if t.Cost(v) == graph.Inf {
		return Tree{}, fmt.Errorf("%w: %d", ErrUnreachable, v)
	}
	ws := getWS()
	defer putWS(ws)
	ws.bumpEdges(t.g.NumEdges())
	type frame struct{ mask, v int }
	stack := []frame{{t.full, v}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch s := t.how[f.mask*t.n+f.v]; s.kind {
		case extend:
			u := int(s.arg)
			t.m.EachEdge(u, f.v, func(_, id int) { ws.markEdge(id) })
			stack = append(stack, frame{f.mask, u})
		case merge:
			sub := int(s.arg)
			stack = append(stack, frame{sub, f.v}, frame{f.mask ^ sub, f.v})
		}
	}
	// The union of the rebuilt paths costs at most Cost(v) (overlaps
	// only remove cost) and spans the terminals, hence it is optimal.
	ws.rootTerms = append(append(ws.rootTerms[:0], v), t.terms...)
	return treeFromEdges(t.g, ws.prune(t.g, ws.mstOfCollected(t.g), ws.rootTerms)), nil
}
