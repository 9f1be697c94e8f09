package graph

import "fmt"

// DiArc is one outgoing arc of a directed graph.
type DiArc struct {
	To   int
	Cost float64
}

// Digraph is a directed weighted graph with dense integer node IDs.
// It backs the multilevel overlay directed (MOD) network of the paper.
type Digraph struct {
	out  [][]DiArc
	arcs int
}

// NewDigraph returns an empty directed graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{out: make([][]DiArc, n)}
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumArcs returns the number of directed arcs.
func (g *Digraph) NumArcs() int { return g.arcs }

// AddArc inserts a directed arc u->v with the given cost, which must be
// finite and non-negative.
func (g *Digraph) AddArc(u, v int, cost float64) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("%w: %d->%d with %d nodes", ErrNodeOutOfRange, u, v, len(g.out))
	}
	if !finiteCost(cost) {
		return fmt.Errorf("%w: %d->%d cost %v", ErrNegativeCost, u, v, cost)
	}
	g.out[u] = append(g.out[u], DiArc{To: v, Cost: cost})
	g.arcs++
	return nil
}

// Out returns the outgoing arcs of u. The slice is shared with the
// graph and must not be modified.
func (g *Digraph) Out(u int) []DiArc { return g.out[u] }

// Dijkstra computes shortest paths from src to every node over
// directed arcs.
func (g *Digraph) Dijkstra(src int) *ShortestPathTree {
	n := len(g.out)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	h := NewNodeHeap(n)
	h.Push(src, 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		if du > dist[u] {
			continue
		}
		for _, a := range g.out[u] {
			if nd := du + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = u
				h.Push(a.To, nd)
			}
		}
	}
	return &ShortestPathTree{Src: src, Dist: dist, Parent: parent}
}
