package graph

import (
	"math/rand"
	"testing"
)

// TestCSRMatchesAdjacency checks that the CSR view preserves the
// adjacency lists exactly — same neighbors, costs, and edge ids in the
// same order — since Dijkstra tie-breaking depends on arc order.
func TestCSRMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(40)
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(40), rng.Intn(40)
		if u == v {
			continue
		}
		if _, err := g.AddEdge(u, v, 1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	c := g.CSR()
	if c.N != g.NumNodes() {
		t.Fatalf("CSR has %d nodes, graph %d", c.N, g.NumNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		arcs := g.adj[u]
		row := c.Start[u+1] - c.Start[u]
		if int(row) != len(arcs) {
			t.Fatalf("node %d: CSR row %d arcs, adjacency %d", u, row, len(arcs))
		}
		for i, a := range arcs {
			p := c.Start[u] + int32(i)
			if int(c.To[p]) != a.To || c.Cost[p] != a.Cost || int(c.EdgeID[p]) != a.Edge {
				t.Fatalf("node %d arc %d: CSR (%d,%v,%d) != adjacency (%d,%v,%d)",
					u, i, c.To[p], c.Cost[p], c.EdgeID[p], a.To, a.Cost, a.Edge)
			}
		}
	}
}

// TestCSRArcPricesLikeHasEdge: Arc names the arc HasEdge prices, on a
// multigraph with parallel edges (120 draws over 40 nodes repeat
// pairs), for every ordered pair and out-of-range tails.
func TestCSRArcPricesLikeHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := New(40)
	for i := 0; i < 300; i++ {
		if u, v := rng.Intn(40), rng.Intn(40); u != v {
			g.MustAddEdge(u, v, float64(1+rng.Intn(3)))
		}
	}
	c := g.CSR()
	for u := -1; u <= g.NumNodes(); u++ {
		for v := -1; v <= g.NumNodes(); v++ {
			cost, ok := g.HasEdge(u, v)
			p := c.Arc(u, v)
			if ok != (p >= 0) {
				t.Fatalf("%d->%d: HasEdge %v, Arc %d", u, v, ok, p)
			}
			if !ok {
				continue
			}
			if int(c.To[p]) != v || c.Cost[p] != cost || p < c.Start[u] || p >= c.Start[u+1] {
				t.Fatalf("%d->%d: arc %d = (to %d, cost %v), HasEdge cost %v", u, v, p, c.To[p], c.Cost[p], cost)
			}
			for q := c.Start[u]; q < p; q++ {
				if int(c.To[q]) == v && c.Cost[q] <= cost {
					t.Fatalf("%d->%d: arc %d chosen over earlier arc %d of cost %v", u, v, p, q, c.Cost[q])
				}
			}
		}
	}
}

// TestCSRGenerationInvalidation checks that mutating the graph after a
// CSR build produces a fresh CSR, while repeated calls without
// mutation return the cached one.
func TestCSRGenerationInvalidation(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	c1 := g.CSR()
	if c2 := g.CSR(); c2 != c1 {
		t.Fatal("unmutated graph rebuilt its CSR")
	}
	gen := g.Generation()
	if _, err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if g.Generation() == gen {
		t.Fatal("AddEdge did not advance the generation")
	}
	c3 := g.CSR()
	if c3 == c1 {
		t.Fatal("mutated graph returned the stale CSR")
	}
	if c3.NumArcs() != c1.NumArcs()+2 {
		t.Fatalf("rebuilt CSR has %d arcs, want %d", c3.NumArcs(), c1.NumArcs()+2)
	}
}
