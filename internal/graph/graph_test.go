package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// diamond returns the classic 4-node diamond used in several tests:
//
//	0 --1-- 1
//	|       |
//	4       1
//	|       |
//	2 --1-- 3
//
// shortest 0->3 is 0-1-3 with cost 2.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(0, 2, 4)
	g.MustAddEdge(2, 3, 1)
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 3, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out-of-range edge: got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := g.AddEdge(-1, 0, 1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("negative node: got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := g.AddEdge(1, 1, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v, want ErrSelfLoop", err)
	}
	if _, err := g.AddEdge(0, 1, -2); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("negative cost: got %v, want ErrNegativeCost", err)
	}
	if _, err := g.AddEdge(0, 1, math.NaN()); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("NaN cost: got %v, want ErrNegativeCost", err)
	}
	if _, err := g.AddEdge(0, 1, math.Inf(1)); !errors.Is(err, ErrNegativeCost) {
		t.Errorf("+Inf cost: got %v, want ErrNegativeCost", err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("invalid edges must not be stored, have %d", g.NumEdges())
	}
}

// An edge of cost +Inf used to be stored: listed by Edges and counted
// by Connected, yet absent from HasEdge, the CSR and the metric.
// Refused, it is absent from all of them.
func TestInfiniteEdgeIsAbsentEverywhere(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Fatal("+Inf edge accepted")
	}
	if g.Connected() {
		t.Error("Connected reports true without an edge")
	}
	if len(g.Edges()) != 0 {
		t.Errorf("Edges %v: want none", g.Edges())
	}
	if _, ok := g.HasEdge(0, 1); ok || g.CSR().Arc(0, 1) != -1 || g.APSP().Dist[0][1] != Inf {
		t.Error("the refused edge is visible to HasEdge, the CSR or the metric")
	}
}

func TestHasEdgeAndParallelEdges(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 1, 3) // parallel, cheaper
	c, ok := g.HasEdge(0, 1)
	if !ok || c != 3 {
		t.Errorf("HasEdge(0,1) = %v,%v; want 3,true", c, ok)
	}
	if _, ok := g.HasEdge(1, 1); ok {
		t.Error("HasEdge(1,1) should be false")
	}
	if _, ok := g.HasEdge(-1, 0); ok {
		t.Error("HasEdge(-1,0) should be false")
	}
}

func TestDijkstraDiamond(t *testing.T) {
	g := diamond(t)
	tree := g.Dijkstra(0)
	wantDist := []float64{0, 1, 3, 2}
	for v, want := range wantDist {
		if tree.Dist[v] != want {
			t.Errorf("dist[%d] = %v, want %v", v, tree.Dist[v], want)
		}
	}
	path := tree.PathTo(3)
	want := []int{0, 1, 3}
	if len(path) != len(want) {
		t.Fatalf("PathTo(3) = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathTo(3) = %v, want %v", path, want)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	tree := g.Dijkstra(0)
	if !math.IsInf(tree.Dist[2], 1) {
		t.Errorf("dist[2] = %v, want +Inf", tree.Dist[2])
	}
	if p := tree.PathTo(2); p != nil {
		t.Errorf("PathTo(2) = %v, want nil", p)
	}
}

func TestPathToSourceItself(t *testing.T) {
	g := diamond(t)
	tree := g.Dijkstra(2)
	p := tree.PathTo(2)
	if len(p) != 1 || p[0] != 2 {
		t.Errorf("PathTo(source) = %v, want [2]", p)
	}
}

func TestFloydWarshallMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		// random connected-ish graph: random tree + extra edges
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64()*9)
			}
		}
		m := floydWarshall(g)
		for s := 0; s < n; s++ {
			tr := g.Dijkstra(s)
			for v := 0; v < n; v++ {
				if math.Abs(m.Dist[s][v]-tr.Dist[v]) > 1e-9 {
					t.Fatalf("trial %d: dist(%d,%d): FW %v vs Dijkstra %v",
						trial, s, v, m.Dist[s][v], tr.Dist[v])
				}
			}
		}
	}
}

func TestAllDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(25)
		g := New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*5)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64()*5)
			}
		}
		fw := floydWarshall(g)
		ad := allDijkstra(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if math.Abs(fw.Dist[u][v]-ad.Dist[u][v]) > 1e-9 {
					t.Fatalf("dist(%d,%d): FW %v vs AllDijkstra %v", u, v, fw.Dist[u][v], ad.Dist[u][v])
				}
			}
		}
	}
}

// TestAPSPByteIdentical pins the contract that the worker-pool APSP
// is indistinguishable from its rows run serially — same distances AND
// same tie-breaks (first arcs) — including on graphs with unreachable
// components, parallel edges, and zero-cost ties. tools.sh runs it at
// -cpu 1,2,4, so the pool runs with one, two and four workers.
func TestAPSPByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(60)
		g := New(n)
		// Spanning tree over a prefix only, so some nodes stay
		// unreachable; sprinkle parallel and zero-cost edges.
		reach := 1 + rng.Intn(n)
		for v := 1; v < reach; v++ {
			g.MustAddEdge(rng.Intn(v), v, float64(rng.Intn(6)))
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, float64(rng.Intn(6)))
			}
		}
		serial := allDijkstra(g)
		par := g.APSP()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if serial.Dist[u][v] != par.Dist[u][v] {
					t.Fatalf("trial %d: dist(%d,%d): serial %v vs parallel %v",
						trial, u, v, serial.Dist[u][v], par.Dist[u][v])
				}
				if serial.next[u][v] != par.next[u][v] {
					t.Fatalf("trial %d: next(%d,%d): serial %v vs parallel %v",
						trial, u, v, serial.next[u][v], par.next[u][v])
				}
			}
		}
	}
}

// TestAPSPMatchesFloydWarshall checks APSP's distances against the
// Floyd–Warshall reference, and that each of its paths costs its own
// distance, on a small graph and on large sparse and dense ones.
func TestAPSPMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct{ n, extra int }{
		{10, 20},
		{80, 100},
		{80, 80 * 80 / 2},
	} {
		g := New(tc.n)
		for v := 1; v < tc.n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
		}
		for i := 0; i < tc.extra; i++ {
			u, v := rng.Intn(tc.n), rng.Intn(tc.n)
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64()*9)
			}
		}
		fw := floydWarshall(g)
		m := g.APSP()
		for u := 0; u < tc.n; u++ {
			for v := 0; v < tc.n; v++ {
				if math.Abs(fw.Dist[u][v]-m.Dist[u][v]) > 1e-9 {
					t.Fatalf("n=%d extra=%d: dist(%d,%d): FW %v vs APSP %v",
						tc.n, tc.extra, u, v, fw.Dist[u][v], m.Dist[u][v])
				}
				p := m.Path(u, v)
				if p == nil {
					continue
				}
				if got := pathCost(g, p); math.Abs(got-m.Dist[u][v]) > 1e-9 {
					t.Fatalf("n=%d extra=%d: path(%d,%d) costs %v, dist %v",
						tc.n, tc.extra, u, v, got, m.Dist[u][v])
				}
			}
		}
	}
}

// TestAPSPTieBreakIndependentOfSize: a topology's equal-cost paths do
// not depend on how many other nodes its graph holds. Small graphs
// with {1,2} costs (ties everywhere) are padded with isolated nodes to
// 64 and more; every path among the original nodes must stay the same.
func TestAPSPTieBreakIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(6)
		type edge struct {
			u, v int
			cost float64
		}
		var es []edge
		for v := 1; v < n; v++ {
			es = append(es, edge{rng.Intn(v), v, float64(1 + rng.Intn(2))})
		}
		for i := 0; i < n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				es = append(es, edge{u, v, float64(1 + rng.Intn(2))})
			}
		}
		build := func(nodes int) *Metric {
			g := New(nodes)
			for _, e := range es {
				g.MustAddEdge(e.u, e.v, e.cost)
			}
			return g.APSP()
		}
		small := build(n)
		for _, pad := range []int{64, 100} {
			big := build(pad)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if a, b := small.Path(u, v), big.Path(u, v); !slices.Equal(a, b) {
						t.Fatalf("trial %d: Path(%d,%d) is %v on %d nodes, %v padded to %d", trial, u, v, a, n, b, pad)
					}
				}
			}
		}
	}
}

// TestMetricFirstArcs pins what a metric hop names, under APSP and
// the Floyd–Warshall reference, on graphs with parallel edges (equal
// and unequal costs, inserted in both orders) and zero and −0 costs:
// each EachEdge hop carries the cheapest edge joining its two nodes,
// the lowest id among equals — which is what CSR.Arc picks — EachEdge
// visits Path's nodes in order, every walk ends (two Dijkstra rows that
// break a zero-cost tie differently must not hand it back and forth),
// and an unreachable pair reports false.
func TestMetricFirstArcs(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type edge struct {
		u, v int
		cost float64
	}
	fixed := [][]edge{
		// Parallel edges, the cheaper one inserted second, then first.
		{{0, 1, 2}, {0, 1, 1}, {1, 2, 1}, {2, 1, 3}},
		// Equal parallel edges inserted as u-v and as v-u.
		{{0, 1, 1}, {1, 0, 1}, {2, 1, 1}, {1, 2, 1}, {0, 2, 2}},
		// Zero-cost ties: −0 before +0, +0 before −0, and a zero path
		// beside a unit edge.
		{{0, 1, negZero}, {0, 1, 0}, {2, 1, 0}, {1, 2, negZero}, {0, 2, 0}, {2, 3, 1}, {3, 2, negZero}},
		// Node 0 without an edge (unreachable); AddEdge refuses the
		// +Inf edges this case once held.
		{{1, 2, 1}, {2, 3, 5}, {3, 4, 0}},
	}
	var graphs []*Graph
	for _, es := range fixed {
		g := New(5)
		for _, e := range es {
			g.MustAddEdge(e.u, e.v, e.cost)
		}
		graphs = append(graphs, g)
	}
	rng := rand.New(rand.NewSource(29))
	costs := []float64{0, negZero, 1, 2}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.MustAddEdge(u, v, costs[rng.Intn(len(costs))])
			if rng.Intn(3) == 0 { // a parallel edge, either orientation
				g.MustAddEdge(v, u, costs[rng.Intn(len(costs))])
			}
		}
		graphs = append(graphs, g)
	}
	builders := []struct {
		name  string
		build func(*Graph) *Metric
	}{
		{"APSP", (*Graph).APSP},
		{"floydWarshall", floydWarshall},
	}
	unreachable := 0
	for gi, g := range graphs {
		c, edges := g.CSR(), g.Edges()
		for _, b := range builders {
			m := b.build(g)
			for u := 0; u < g.NumNodes(); u++ {
				for v := 0; v < g.NumNodes(); v++ {
					nodes, ids := []int{u}, []int(nil)
					ok := m.EachEdge(u, v, func(to, id int) {
						if len(ids) == g.NumNodes() {
							t.Fatalf("graph %d %s: walk %d->%d loops: %v", gi, b.name, u, v, nodes)
						}
						nodes = append(nodes, to)
						ids = append(ids, id)
					})
					p := m.Path(u, v)
					if !ok {
						if p != nil || len(ids) != 0 || m.Dist[u][v] != Inf {
							t.Fatalf("graph %d %s: EachEdge(%d,%d) false after %d hops, path %v, dist %v", gi, b.name, u, v, len(ids), p, m.Dist[u][v])
						}
						unreachable++
						continue
					}
					if !slices.Equal(nodes, p) {
						t.Fatalf("graph %d %s: EachEdge(%d,%d) visited %v, path %v", gi, b.name, u, v, nodes, p)
					}
					for i, id := range ids {
						x, y := p[i], p[i+1]
						if want := int(c.EdgeID[c.Arc(x, y)]); id != want {
							t.Fatalf("graph %d %s: hop %d-%d of %d->%d names edge %d, CSR.Arc names %d", gi, b.name, x, y, u, v, id, want)
						}
						e := g.Edge(id)
						if (e.U != x || e.V != y) && (e.U != y || e.V != x) {
							t.Fatalf("graph %d %s: hop %d-%d names edge %d = %+v", gi, b.name, x, y, id, e)
						}
						for j, f := range edges {
							parallel := (f.U == x && f.V == y) || (f.U == y && f.V == x)
							if parallel && (f.Cost < e.Cost || f.Cost == e.Cost && j < id) {
								t.Fatalf("graph %d %s: hop %d-%d names edge %d (cost %v), edge %d (cost %v) should win", gi, b.name, x, y, id, e.Cost, j, f.Cost)
							}
						}
					}
				}
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no unreachable pair came up; the instances no longer cover it")
	}
}

// TestEachHopMatchesPath checks the alloc-free hop iterator visits
// exactly the hops of the materialized path.
func TestEachHopMatchesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 30
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	m := g.APSP()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			var hops [][2]int
			ok := m.EachHop(u, v, func(x, y int) { hops = append(hops, [2]int{x, y}) })
			p := m.Path(u, v)
			if ok != (p != nil) {
				t.Fatalf("EachHop(%d,%d) ok=%v but Path=%v", u, v, ok, p)
			}
			if len(hops) != len(p)-1 && !(p == nil && len(hops) == 0) {
				t.Fatalf("EachHop(%d,%d) visited %d hops for path %v", u, v, len(hops), p)
			}
			for i, h := range hops {
				if h[0] != p[i] || h[1] != p[i+1] {
					t.Fatalf("EachHop(%d,%d) hop %d = %v, path %v", u, v, i, h, p)
				}
			}
		}
	}
}

func TestMetricPathReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for i := 0; i < 30; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	m := g.APSP()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			p := m.Path(u, v)
			if p == nil {
				t.Fatalf("Path(%d,%d) unexpectedly nil", u, v)
			}
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("Path(%d,%d) endpoints wrong: %v", u, v, p)
			}
			if got := pathCost(g, p); math.Abs(got-m.Dist[u][v]) > 1e-9 {
				t.Fatalf("Path(%d,%d) cost %v != dist %v", u, v, got, m.Dist[u][v])
			}
		}
	}
}

func TestMetricTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 15
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, 1+rng.Float64()*4)
	}
	m := g.APSP()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if m.Dist[i][j] > m.Dist[i][k]+m.Dist[k][j]+1e-9 {
					t.Fatalf("triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						i, j, m.Dist[i][j], i, k, k, j, m.Dist[i][k]+m.Dist[k][j])
				}
			}
		}
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("graph with isolated node 4 reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Errorf("components = %d, want 3", len(comps))
	}
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	if !g.Connected() {
		t.Error("fully joined graph reported disconnected")
	}
	if New(0).Connected() != true {
		t.Error("empty graph should be connected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustAddEdge(0, 3, 0.5)
	if g.NumEdges() == c.NumEdges() {
		t.Error("mutating clone changed original edge count")
	}
	if d := g.Dijkstra(0).Dist[3]; d != 2 {
		t.Errorf("original dist changed after clone mutation: %v", d)
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := diamond(t)
	edges := g.Edges()
	edges[0].Cost = 999
	if g.Edge(0).Cost == 999 {
		t.Error("Edges() exposed internal state")
	}
}

// TestPathCostNonAdjacent checks the pathCost oracle itself.
func TestPathCostNonAdjacent(t *testing.T) {
	g := diamond(t)
	if c := pathCost(g, []int{0, 3}); !math.IsInf(c, 1) {
		t.Errorf("pathCost over non-edge = %v, want Inf", c)
	}
	if c := pathCost(g, []int{0}); c != 0 {
		t.Errorf("pathCost of single node = %v, want 0", c)
	}
	if c := pathCost(g, nil); c != 0 {
		t.Errorf("pathCost(nil) = %v, want 0", c)
	}
}

func TestNodeHeapDecreaseKey(t *testing.T) {
	var h NodeHeap
	h.Reset(4)
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
