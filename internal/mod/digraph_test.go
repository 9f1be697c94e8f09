package mod

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sftree/internal/graph"
)

// diArc is one outgoing arc of a digraph.
type diArc struct {
	To   int
	Cost float64
}

// digraph is a directed weighted graph with dense integer node IDs
// and every arc stored: the materialized MOD overlay that the
// differential tests run a textbook heap Dijkstra over.
type digraph struct {
	out  [][]diArc
	arcs int
}

func newDigraph(n int) *digraph { return &digraph{out: make([][]diArc, n)} }

func (g *digraph) NumNodes() int { return len(g.out) }
func (g *digraph) NumArcs() int  { return g.arcs }

// AddArc inserts a directed arc u->v with the given cost, which must be
// finite and non-negative.
func (g *digraph) AddArc(u, v int, cost float64) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("%w: %d->%d with %d nodes", graph.ErrNodeOutOfRange, u, v, len(g.out))
	}
	if !(cost >= 0) || math.IsInf(cost, 1) {
		return fmt.Errorf("%w: %d->%d cost %v", graph.ErrNegativeCost, u, v, cost)
	}
	g.out[u] = append(g.out[u], diArc{To: v, Cost: cost})
	g.arcs++
	return nil
}

// Out returns the outgoing arcs of u.
func (g *digraph) Out(u int) []diArc { return g.out[u] }

// Dijkstra computes shortest paths from src to every node over
// directed arcs.
func (g *digraph) Dijkstra(src int) *graph.ShortestPathTree {
	n := len(g.out)
	dist := make([]float64, n)
	parent := make([]int, n)
	for i := range dist {
		dist[i] = graph.Inf
		parent[i] = -1
	}
	dist[src] = 0
	var h graph.NodeHeap
	h.Reset(n)
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
	return &graph.ShortestPathTree{Src: src, Dist: dist, Parent: parent}
}

func TestDigraphAddArcValidation(t *testing.T) {
	g := newDigraph(2)
	if err := g.AddArc(0, 5, 1); !errors.Is(err, graph.ErrNodeOutOfRange) {
		t.Errorf("out of range: got %v", err)
	}
	if err := g.AddArc(0, 1, -1); !errors.Is(err, graph.ErrNegativeCost) {
		t.Errorf("negative: got %v", err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if err := g.AddArc(0, 1, c); !errors.Is(err, graph.ErrNegativeCost) {
			t.Errorf("cost %v: got %v", c, err)
		}
	}
	if err := g.AddArc(0, 1, 2); err != nil {
		t.Errorf("valid arc: got %v", err)
	}
	if g.NumArcs() != 1 {
		t.Errorf("NumArcs = %d, want 1", g.NumArcs())
	}
}

func TestDigraphDijkstraRespectsDirection(t *testing.T) {
	g := newDigraph(3)
	if err := g.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	fwd := g.Dijkstra(0)
	if fwd.Dist[2] != 2 {
		t.Errorf("dist 0->2 = %v, want 2", fwd.Dist[2])
	}
	back := g.Dijkstra(2)
	if !math.IsInf(back.Dist[0], 1) {
		t.Errorf("dist 2->0 = %v, want Inf (arcs are directed)", back.Dist[0])
	}
}

func TestDigraphDijkstraPath(t *testing.T) {
	// Two routes 0->3: direct cost 10, via 1,2 cost 3.
	g := newDigraph(4)
	for _, arc := range []struct {
		u, v int
		c    float64
	}{{0, 3, 10}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1}} {
		if err := g.AddArc(arc.u, arc.v, arc.c); err != nil {
			t.Fatal(err)
		}
	}
	tr := g.Dijkstra(0)
	if tr.Dist[3] != 3 {
		t.Fatalf("dist = %v, want 3", tr.Dist[3])
	}
	p := tr.PathTo(3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}
