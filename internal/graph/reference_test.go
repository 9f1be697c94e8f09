package graph

// References for APSP. Neither is used by the library: Floyd–Warshall
// shares no code with the Dijkstra rows, so its distances check theirs,
// and allDijkstra computes APSP's rows one after another on the calling
// goroutine, so APSP's worker pool must reproduce it byte for byte.

// floydWarshall computes all-pairs shortest paths in O(V^3). Its first
// arcs name the cheapest edge joining two nodes, the lowest id on ties,
// as CSR.Arc does, but its equal-cost paths are its own.
func floydWarshall(g *Graph) *Metric {
	c := g.CSR()
	n := c.N
	dist, next := metricSlabs(n)
	for i := 0; i < n; i++ {
		di, ni := dist[i], next[i]
		for j := range di {
			di[j] = Inf
			ni[j] = -1
		}
		di[i] = 0
		// Each neighbour starts at its cheapest arc, the earliest on
		// ties: a row lists its arcs in edge-id order, so that is the
		// lowest-id cheapest edge, as CSR.Arc picks.
		for p, end := c.Start[i], c.Start[i+1]; p < end; p++ {
			if j := c.To[p]; c.Cost[p] < di[j] {
				di[j] = c.Cost[p]
				ni[j] = p
			}
		}
	}
	for k := 0; k < n; k++ {
		dk := dist[k]
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if dik == Inf {
				continue
			}
			di, ni, nik := dist[i], next[i], next[i][k]
			for j := 0; j < n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
					ni[j] = nik
				}
			}
		}
	}
	return &Metric{Dist: dist, csr: c, next: next}
}

// allDijkstra is APSP without the worker pool: every source's row in
// order on one scratch arena.
func allDijkstra(g *Graph) *Metric {
	c := g.CSR()
	n := c.N
	dist, next := metricSlabs(n)
	sc := getScratch(n)
	for s := 0; s < n; s++ {
		apspRow(c, s, dist[s], next[s], sc)
	}
	putScratch(sc)
	return &Metric{Dist: dist, csr: c, next: next}
}

// pathCost sums the edge costs along a node sequence, using the
// cheapest parallel edge for every hop. It returns Inf if any
// consecutive pair is not adjacent.
func pathCost(g *Graph, path []int) float64 {
	var sum float64
	for i := 1; i < len(path); i++ {
		c, ok := g.HasEdge(path[i-1], path[i])
		if !ok {
			return Inf
		}
		sum += c
	}
	return sum
}
