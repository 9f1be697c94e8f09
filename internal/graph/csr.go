package graph

// This file holds the flat compressed-sparse-row (CSR) adjacency
// representation behind every shortest-path hot loop. The slice-of-
// slices adjacency in Graph stays the mutable build-time structure;
// CSR is derived from it once, cached, and shared read-only by any
// number of goroutines. Arc order within a row matches the insertion
// order of Graph.AddEdge, so CSR traversals break distance ties
// exactly like the historical adjacency-list traversals did — results
// stay bit-identical.

// CSR is the undirected graph in compressed-sparse-row form: the arcs
// leaving node u occupy positions Start[u]..Start[u+1] of the To /
// Cost / EdgeID arrays. Node ids and arc positions fit int32 (the
// repository's instances are dense integer graphs well under 2^31
// nodes); costs stay float64.
type CSR struct {
	N      int
	Start  []int32   // len N+1; row bounds into the arc arrays
	To     []int32   // arc head node
	Cost   []float64 // arc traversal cost
	EdgeID []int32   // index into Graph.Edges of the underlying edge
}

// NumArcs returns the number of directed arcs (twice the edge count).
func (c *CSR) NumArcs() int { return len(c.To) }

// Arc returns the position of the arc that prices the directed hop
// u -> v — the cheapest parallel arc, the earliest winning ties, so
// Cost[Arc(u, v)] is what Graph.HasEdge(u, v) reports — or -1 when u-v
// is not an edge. Positions double as dense ids of directed edges.
func (c *CSR) Arc(u, v int) int32 {
	if u < 0 || u >= c.N {
		return -1
	}
	best, bestCost := int32(-1), Inf
	for p, end := c.Start[u], c.Start[u+1]; p < end; p++ {
		if int(c.To[p]) == v && c.Cost[p] < bestCost {
			best, bestCost = p, c.Cost[p]
		}
	}
	return best
}

func buildCSR(g *Graph) *CSR {
	n := len(g.adj)
	m := 0
	for _, l := range g.adj {
		m += len(l)
	}
	c := &CSR{
		N:      n,
		Start:  make([]int32, n+1),
		To:     make([]int32, m),
		Cost:   make([]float64, m),
		EdgeID: make([]int32, m),
	}
	pos := 0
	for u, l := range g.adj {
		c.Start[u] = int32(pos)
		for _, a := range l {
			c.To[pos] = int32(a.To)
			c.Cost[pos] = a.Cost
			c.EdgeID[pos] = int32(a.Edge)
			pos++
		}
	}
	c.Start[n] = int32(pos)
	return c
}

// CSR returns the graph's compressed-sparse-row form, building and
// caching it on first use and rebuilding when the graph has mutated
// since (see Generation). The result is shared and strictly read-only;
// concurrent callers are safe.
func (g *Graph) CSR() *CSR {
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if g.csr == nil || g.csrGen != g.gen {
		g.csr = buildCSR(g)
		g.csrGen = g.gen
	}
	return g.csr
}

// Generation returns a counter that increments on every topology
// mutation (AddEdge). Derived structures — the cached CSR here, the
// cached metric closure on nfv.Network — stamp the generation they
// were built at and revalidate against it, so a stale cache is
// rebuilt instead of silently served.
func (g *Graph) Generation() uint64 { return g.gen }
