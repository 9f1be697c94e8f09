package graph

import "sort"

// MSTKruskal returns the edge indices of a minimum spanning forest
// (a spanning tree when the graph is connected) computed with
// Kruskal's algorithm, together with its total cost.
func (g *Graph) MSTKruskal() ([]int, float64) {
	order := make([]int, len(g.edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.edges[order[a]].Cost < g.edges[order[b]].Cost
	})
	uf := NewUnionFind(len(g.adj))
	var (
		picked []int
		total  float64
	)
	for _, id := range order {
		e := g.edges[id]
		if uf.Union(e.U, e.V) {
			picked = append(picked, id)
			total += e.Cost
		}
	}
	return picked, total
}

// MSTPrim returns the edge indices of a minimum spanning tree of the
// connected component containing root, computed with Prim's algorithm,
// together with its total cost.
func (g *Graph) MSTPrim(root int) ([]int, float64) {
	n := len(g.adj)
	inTree := make([]bool, n)
	bestCost := make([]float64, n)
	bestEdge := make([]int, n)
	for i := range bestCost {
		bestCost[i] = Inf
		bestEdge[i] = -1
	}
	bestCost[root] = 0
	h := NewNodeHeap(n)
	h.Push(root, 0)
	var (
		picked []int
		total  float64
	)
	for h.Len() > 0 {
		u, _ := h.Pop()
		if inTree[u] {
			continue
		}
		inTree[u] = true
		if bestEdge[u] >= 0 {
			picked = append(picked, bestEdge[u])
			total += g.edges[bestEdge[u]].Cost
		}
		for _, a := range g.adj[u] {
			if !inTree[a.To] && a.Cost < bestCost[a.To] {
				bestCost[a.To] = a.Cost
				bestEdge[a.To] = a.Edge
				h.Push(a.To, a.Cost)
			}
		}
	}
	return picked, total
}

// IsTreeSpanning reports whether the edge set forms a tree (acyclic,
// connected over its endpoints) that touches every node in nodes.
func (g *Graph) IsTreeSpanning(edgeIDs []int, nodes []int) bool {
	uf := NewUnionFind(len(g.adj))
	touched := make(map[int]bool, 2*len(edgeIDs))
	for _, id := range edgeIDs {
		e := g.edges[id]
		if !uf.Union(e.U, e.V) {
			return false // cycle
		}
		touched[e.U] = true
		touched[e.V] = true
	}
	if len(nodes) == 0 {
		return true
	}
	root := uf.Find(nodes[0])
	for _, v := range nodes {
		if len(nodes) > 1 && !touched[v] {
			return false
		}
		if uf.Find(v) != root {
			return false
		}
	}
	return true
}
