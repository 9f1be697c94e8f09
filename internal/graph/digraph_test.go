package graph

import (
	"errors"
	"math"
	"testing"
)

func TestDigraphAddArcValidation(t *testing.T) {
	g := NewDigraph(2)
	if err := g.AddArc(0, 5, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out of range: got %v", err)
	}
	if err := g.AddArc(0, 1, -1); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("negative: got %v", err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		if err := g.AddArc(0, 1, c); !errors.Is(err, ErrNegativeCost) {
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
	g := NewDigraph(3)
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
	g := NewDigraph(4)
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

func TestNodeHeapDecreaseKey(t *testing.T) {
	h := NewNodeHeap(4)
	h.Push(0, 10)
	h.Push(1, 5)
	h.Push(2, 7)
	h.Push(0, 1)  // decrease
	h.Push(1, 99) // ignored: larger than current
	n, p := h.Pop()
	if n != 0 || p != 1 {
		t.Fatalf("Pop = (%d,%v), want (0,1)", n, p)
	}
	n, p = h.Pop()
	if n != 1 || p != 5 {
		t.Fatalf("Pop = (%d,%v), want (1,5)", n, p)
	}
	n, p = h.Pop()
	if n != 2 || p != 7 {
		t.Fatalf("Pop = (%d,%v), want (2,7)", n, p)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}
