package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShortestPathTree is the result of a single-source shortest-path
// computation: per-node distance from the source and the parent node on
// one shortest path (-1 for the source itself and unreachable nodes).
type ShortestPathTree struct {
	Src    int
	Dist   []float64
	Parent []int
}

// PathTo reconstructs the node sequence from the tree's source to v,
// inclusive of both endpoints. It returns nil if v is unreachable.
func (t *ShortestPathTree) PathTo(v int) []int {
	if v < 0 || v >= len(t.Dist) || t.Dist[v] == Inf {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = t.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Dijkstra computes shortest paths from src to every node. The
// traversal runs over the cached CSR form with a pooled heap; arc
// order matches the adjacency lists, so tie-breaking is identical to
// the historical slice-of-slices implementation.
func (g *Graph) Dijkstra(src int) *ShortestPathTree {
	c := g.CSR()
	dist := make([]float64, c.N)
	parent := make([]int, c.N)
	sc := getScratch(0)
	csrDijkstra(c, src, dist, parent, sc)
	putScratch(sc)
	return &ShortestPathTree{Src: src, Dist: dist, Parent: parent}
}

// csrDijkstra is the shared Dijkstra core: it fills dist and parent
// (both length c.N) for the given source, reusing the scratch arena's
// heap and zero-hop counts.
//
// Among shortest paths a node keeps one with the fewest zero-cost
// edges, re-queued whenever a tie lowers that count. Every metric walk
// then lowers (distance, zero-cost edges) to its target at each hop,
// so it ends; rows that broke a zero-cost tie each their own way could
// hand a walk back and forth forever. Without zero-cost edges every
// count is 0, the tie never fires and the parents are plain Dijkstra's.
func csrDijkstra(c *CSR, src int, dist []float64, parent []int, sc *spScratch) {
	if cap(sc.zeros) < c.N {
		sc.zeros = make([]int32, c.N)
	}
	zeros := sc.zeros[:c.N]
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
		zeros[i] = 0
	}
	dist[src] = 0
	h := &sc.heap
	h.Reset(c.N)
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > dist[u] {
			continue
		}
		zu := zeros[u]
		for p, end := c.Start[u], c.Start[u+1]; p < end; p++ {
			v := int(c.To[p])
			nd := du + c.Cost[p]
			if nd > dist[v] {
				continue
			}
			z := zu
			if c.Cost[p] == 0 {
				z++
			}
			if nd < dist[v] || z < zeros[v] {
				dist[v] = nd
				parent[v] = u
				zeros[v] = z
				h.Push(v, nd)
			}
		}
	}
}

// Metric holds all-pairs shortest-path distances plus enough routing
// state to reconstruct one shortest path per pair. The routing state
// is one arc per pair: the CSR position of the first arc on the path,
// so a walk reads the next node and the edge that carries the hop in
// one load each, and scans no adjacency list. That arc is always the
// cheapest one joining its two nodes, the earliest (lowest edge id) on
// ties — CSR.Arc's pick.
type Metric struct {
	Dist [][]float64
	csr  *CSR
	next [][]int32 // next[u][v] = CSR position of the first arc on a shortest u->v path, -1 if u == v or none
}

// metricSlabs allocates the n*n distance and first-arc matrices as
// two contiguous slabs sliced into rows: one allocation each instead
// of n, and row-major locality for the sweeps that walk them.
func metricSlabs(n int) ([][]float64, [][]int32) {
	distSlab := make([]float64, n*n)
	nextSlab := make([]int32, n*n)
	dist := make([][]float64, n)
	next := make([][]int32, n)
	for i := 0; i < n; i++ {
		dist[i] = distSlab[i*n : (i+1)*n : (i+1)*n]
		next[i] = nextSlab[i*n : (i+1)*n : (i+1)*n]
	}
	return dist, next
}

// apspRow computes one row of the all-pairs metric into dist and nx
// (both length c.N): distances from s plus the first arc towards
// every reachable node. First arcs are filled in a single
// amortized-O(V) pass: a direct child x of s gets CSR.Arc(s, x), and
// every other node inherits the first arc of its Dijkstra parent, so
// each parent chain is resolved once and memoized. The Dijkstra
// parents and chain storage live in the scratch arena.
func apspRow(c *CSR, s int, dist []float64, nx []int32, sc *spScratch) {
	n := c.N
	parent := sc.parent[:n]
	csrDijkstra(c, s, dist, parent, sc)
	for v := range nx {
		nx[v] = -1
	}
	for v := 0; v < n; v++ {
		if v == s || dist[v] == Inf || nx[v] != -1 {
			continue
		}
		// Walk up the parent chain until a node with a known first arc
		// (or a direct child of s), then fill the chain with that arc.
		chain := sc.chain[:0]
		x := v
		for nx[x] == -1 {
			if parent[x] == s {
				nx[x] = c.Arc(s, x)
				break
			}
			chain = append(chain, x)
			x = parent[x]
		}
		hop := nx[x]
		for _, y := range chain {
			nx[y] = hop
		}
		sc.chain = chain
	}
}

// APSP computes all-pairs shortest paths: one Dijkstra row per
// source (apspRow), the rows pulled from a shared counter by one
// worker goroutine per available CPU. Every row is a pure function of
// its source, so the result — distances and first arcs alike — is the
// same at every worker count, and one tie-break holds at every graph
// size and density.
func (g *Graph) APSP() *Metric {
	c := g.CSR()
	n := c.N
	dist, next := metricSlabs(n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := getScratch(n)
			for {
				s := int(cursor.Add(1)) - 1
				if s >= n {
					break
				}
				apspRow(c, s, dist[s], next[s], sc)
			}
			putScratch(sc)
		}()
	}
	wg.Wait()
	return &Metric{Dist: dist, csr: c, next: next}
}

// Path returns one shortest path from u to v as a node sequence
// including both endpoints, or nil if v is unreachable from u.
// Path(u, u) returns [u].
func (m *Metric) Path(u, v int) []int {
	if m.Dist[u][v] == Inf {
		return nil
	}
	path := []int{u}
	for u != v {
		u = int(m.csr.To[m.next[u][v]])
		path = append(path, u)
	}
	return path
}

// EachHop visits every consecutive hop on one shortest u->v path in
// order — the hops of Path(u, v) — without materializing the path. It
// reports whether v is reachable from u; a path from u to u has no
// hops and reports true.
func (m *Metric) EachHop(u, v int, fn func(from, to int)) bool {
	if m.Dist[u][v] == Inf {
		return false
	}
	for u != v {
		w := int(m.csr.To[m.next[u][v]])
		fn(u, w)
		u = w
	}
	return true
}

// EachEdge is EachHop that names the edge under each hop instead of
// its near end: fn gets the hop's far node and the id of the edge that
// carries it — the cheapest edge joining the two nodes, the lowest id
// among equals, which is what CSR.Arc picks.
func (m *Metric) EachEdge(u, v int, fn func(to, edge int)) bool {
	if m.Dist[u][v] == Inf {
		return false
	}
	for u != v {
		a := m.next[u][v]
		u = int(m.csr.To[a])
		fn(u, int(m.csr.EdgeID[a]))
	}
	return true
}
