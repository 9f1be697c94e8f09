package steiner

import (
	"fmt"
	"sort"

	"sftree/internal/graph"
)

// Mehlhorn computes a Steiner tree with Mehlhorn's Voronoi-region
// algorithm: one multi-source Dijkstra from all terminals partitions
// the graph into Voronoi regions; every edge bridging two regions
// induces a candidate connection between their terminals; an MST over
// those candidates, expanded back into real paths and pruned, spans
// the terminals within the same 2(1-1/t) factor as KMB but in
// O(E log V) — no all-pairs metric required, which is why stage one
// offers it for very large networks.
//
// The Dijkstra sweep runs over the graph's CSR form with pooled
// buffers; candidate bridges live in flat t*t matrices instead of a
// map, and MST ties are broken by edge id so results are
// deterministic.
func Mehlhorn(g *graph.Graph, terminals []int) (Tree, error) {
	ws := getWS()
	defer putWS(ws)
	terminals = ws.dedup(terminals, g.NumNodes())
	switch len(terminals) {
	case 0:
		return Tree{}, ErrNoTerminals
	case 1:
		return Tree{}, nil
	}
	c := g.CSR()
	n := c.N
	if cap(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.parent = make([]int, n)
		ws.region = make([]int32, n)
	}
	dist := ws.dist[:n]
	parent := ws.parent[:n] // predecessor towards the region's terminal
	region := ws.region[:n] // index into terminals
	for v := 0; v < n; v++ {
		dist[v] = graph.Inf
		parent[v] = -1
		region[v] = -1
	}
	// Multi-source Dijkstra.
	h := &ws.heap
	h.Reset(n)
	for i, t := range terminals {
		dist[t] = 0
		region[t] = int32(i)
		h.Push(t, 0)
	}
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > dist[u] {
			continue
		}
		for p, end := c.Start[u], c.Start[u+1]; p < end; p++ {
			v := int(c.To[p])
			if nd := du + c.Cost[p]; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				region[v] = region[u]
				h.Push(v, nd)
			}
		}
	}
	// (Disconnected terminals surface below: their regions never merge.)

	// Candidate bridging edges between regions: the cheapest per
	// terminal pair, kept in flat t*t matrices (upper triangle used).
	t := len(terminals)
	if cap(ws.bridgeW) < t*t {
		ws.bridgeW = make([]float64, t*t)
		ws.bridgeE = make([]int32, t*t)
	}
	bridgeW := ws.bridgeW[:t*t]
	bridgeE := ws.bridgeE[:t*t]
	for i := range bridgeW {
		bridgeW[i] = graph.Inf
		bridgeE[i] = -1
	}
	cands := ws.pairs[:0] // (ru, rv) pairs with a bridge, ru < rv
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		ru, rv := region[e.U], region[e.V]
		if ru == rv || ru == -1 || rv == -1 {
			continue
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		w := dist[e.U] + e.Cost + dist[e.V]
		at := int(ru)*t + int(rv)
		if bridgeE[at] == -1 {
			cands = append(cands, [2]int32{ru, rv})
		}
		if w < bridgeW[at] {
			bridgeW[at] = w
			bridgeE[at] = int32(id)
		}
	}
	ws.pairs = cands
	if len(cands) == 0 {
		return Tree{}, fmt.Errorf("%w: terminals not mutually reachable", ErrUnreachable)
	}

	// MST over the terminal-region graph (Kruskal; ties by edge id for
	// a deterministic tree).
	sort.Slice(cands, func(a, b int) bool {
		wa := bridgeW[int(cands[a][0])*t+int(cands[a][1])]
		wb := bridgeW[int(cands[b][0])*t+int(cands[b][1])]
		if wa != wb {
			return wa < wb
		}
		return bridgeE[int(cands[a][0])*t+int(cands[a][1])] < bridgeE[int(cands[b][0])*t+int(cands[b][1])]
	})
	uf := &ws.uf
	uf.Reset(t)
	ws.bumpEdges(g.NumEdges())
	joined := 1
	for _, cand := range cands {
		if !uf.Union(int(cand[0]), int(cand[1])) {
			continue
		}
		joined++
		// Expand: walk both endpoints back to their terminals.
		id := int(bridgeE[int(cand[0])*t+int(cand[1])])
		e := g.Edge(id)
		ws.markEdge(id)
		for _, start := range [2]int{e.U, e.V} {
			for x := start; parent[x] != -1; x = parent[x] {
				ws.markEdge(int(c.EdgeID[c.Arc(x, parent[x])]))
			}
		}
	}
	if joined < t {
		return Tree{}, fmt.Errorf("%w: voronoi forest disconnected", ErrUnreachable)
	}
	return treeFromEdges(g, ws.prune(g, ws.mstOfCollected(g), terminals)), nil
}
