package steiner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
)

// referenceKMB is the textbook four-step KMB the package shipped
// before Sweep: Prim over the metric closure, expansion along the
// metric's shortest paths, Kruskal over the expansion, leaf pruning —
// one root at a time, nothing shared, nothing skipped. It is the
// oracle for every sweep, and returns its closure edges beside the
// tree: (from, to) node pairs in the order Prim picked them.
func referenceKMB(g *graph.Graph, m *graph.Metric, terminals []int) (Tree, [][2]int, error) {
	ws := getWS()
	defer putWS(ws)
	terminals = ws.dedup(terminals, g.NumNodes())
	switch len(terminals) {
	case 0:
		return Tree{}, nil, ErrNoTerminals
	case 1:
		return Tree{}, nil, nil
	}
	for _, a := range terminals[1:] {
		if m.Dist[terminals[0]][a] == graph.Inf {
			return Tree{}, nil, fmt.Errorf("%w: %d and %d", ErrUnreachable, terminals[0], a)
		}
	}

	// 1. MST of the metric closure over terminals (Prim, O(t^2)).
	t := len(terminals)
	inTree := make([]bool, t)
	bestD := make([]float64, t)
	bestFrom := make([]int, t)
	for i := range bestD {
		bestD[i], bestFrom[i] = graph.Inf, -1
	}
	bestD[0] = 0
	var closure [][2]int
	for range terminals {
		pick := -1
		for i := 0; i < t; i++ {
			if !inTree[i] && (pick == -1 || bestD[i] < bestD[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		if bestFrom[pick] >= 0 {
			closure = append(closure, [2]int{terminals[bestFrom[pick]], terminals[pick]})
		}
		for i := 0; i < t; i++ {
			if !inTree[i] {
				if d := m.Dist[terminals[pick]][terminals[i]]; d < bestD[i] {
					bestD[i], bestFrom[i] = d, pick
				}
			}
		}
	}

	// 2. Expand closure edges into shortest paths; collect distinct edges.
	ws.bumpEdges(g.NumEdges())
	badU, badV := -1, -1
	for _, ce := range closure {
		m.EachHop(ce[0], ce[1], func(x, y int) {
			id, ok := cheapestEdgeBetween(g, x, y)
			if !ok {
				badU, badV = x, y
				return
			}
			ws.markEdge(id)
		})
	}
	if badU != -1 {
		return Tree{}, nil, fmt.Errorf("steiner: metric path uses non-edge %d-%d", badU, badV)
	}

	// 3. MST of the expansion subgraph; 4. prune non-terminal leaves.
	return treeFromEdges(g, ws.prune(g, ws.mstOfCollected(g), terminals)), closure, nil
}

// cheapestEdgeBetween returns the index of the cheapest edge joining u
// and v, the earliest on ties, by scanning u's CSR row: the oracle
// finds each hop's edge itself rather than reading the metric's arcs.
func cheapestEdgeBetween(g *graph.Graph, u, v int) (int, bool) {
	best, found := -1, false
	bestCost := graph.Inf
	c := g.CSR()
	for p := c.Start[u]; p < c.Start[u+1]; p++ {
		if int(c.To[p]) == v && c.Cost[p] < bestCost {
			best, bestCost, found = int(c.EdgeID[p]), c.Cost[p], true
		}
	}
	return best, found
}

// closureOf reads the closure edges of the sweep's last expansion for
// root as (from, to) node pairs.
func closureOf(s *Sweep, root int) [][2]int {
	var out [][2]int
	for _, ce := range s.ws.pairs {
		from := root
		if ce[0] != fromRoot {
			from = s.dests[ce[0]]
		}
		out = append(out, [2]int{from, s.dests[ce[1]]})
	}
	return out
}

// errClass sorts errors into the classes callers tell apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrUnreachable):
		return "unreachable"
	case errors.Is(err, ErrNoTerminals):
		return "no terminals"
	default:
		return "other"
	}
}

// diffSweep holds one sweep over dests, and KMB itself, to the oracle
// for every node as root: same edges in the same order, Cost ==, same
// error class, and — whenever Prim ran — the same closure edges in the
// same pick order with the same orientation. It returns the sweep's
// counters.
func diffSweep(t testing.TB, g *graph.Graph, m *graph.Metric, dests []int) SweepCounters {
	t.Helper()
	s := NewSweep(g, m, dests)
	defer s.Close()
	for root := 0; root < g.NumNodes(); root++ {
		terminals := append([]int{root}, dests...)
		want, closure, wantErr := referenceKMB(g, m, terminals)
		check := func(what string, got Tree, err error) {
			t.Helper()
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("%s root %d dests %v: error %v, oracle %v", what, root, dests, err, wantErr)
			}
			if !slices.Equal(got.Edges, want.Edges) || got.Cost != want.Cost {
				t.Fatalf("%s root %d dests %v: tree %v cost %v, oracle %v cost %v",
					what, root, dests, got.Edges, got.Cost, want.Edges, want.Cost)
			}
		}
		checkClosure := func(what string) {
			t.Helper()
			if closure == nil {
				return // Prim did not run: the sweep's pairs are a previous root's
			}
			if got := closureOf(s, root); !slices.Equal(got, closure) {
				t.Fatalf("%s root %d dests %v: closure edges %v, oracle %v", what, root, dests, got, closure)
			}
		}
		got, err := s.Tree(root)
		check("Sweep.Tree", got, err)
		checkClosure("Sweep.Tree")
		cost, err := s.Cost(root)
		check("Sweep.Cost", Tree{Edges: want.Edges, Cost: cost}, err)
		checkClosure("Sweep.Cost")
		got, err = KMB(g, m, terminals)
		check("KMB", got, err)
	}
	return s.Counters()
}

// labellings run each edge case three ways. Three routines once built
// the metric, each breaking equal-cost ties its own way; the subtests
// keep their names, and each now breaks ties its own way by handing
// APSP a relabelled copy of the instance: as given, with nodes
// numbered in reverse, or with edges added in reverse order (which
// moves the lowest id among parallel edges).
var labellings = []struct {
	name    string
	relabel func(g *graph.Graph, dests []int) (*graph.Graph, []int)
}{
	{"FloydWarshall", func(g *graph.Graph, dests []int) (*graph.Graph, []int) { return g, dests }},
	{"AllDijkstra", reverseNodes},
	{"APSPAuto", reverseEdges},
}

// reverseNodes copies g with node v renamed n-1-v, edges in the same
// order, and renames dests to match.
func reverseNodes(g *graph.Graph, dests []int) (*graph.Graph, []int) {
	n := g.NumNodes()
	h := graph.New(n)
	for _, e := range g.Edges() {
		h.MustAddEdge(n-1-e.U, n-1-e.V, e.Cost)
	}
	var d []int
	for _, v := range dests {
		d = append(d, n-1-v)
	}
	return h, d
}

// reverseEdges copies g with its edges added last to first.
func reverseEdges(g *graph.Graph, dests []int) (*graph.Graph, []int) {
	h := graph.New(g.NumNodes())
	es := g.Edges()
	for i := len(es) - 1; i >= 0; i-- {
		h.MustAddEdge(es[i].U, es[i].V, es[i].Cost)
	}
	return h, dests
}

// costModes draw edge costs: floats (ties rare), all ones, {1,2}
// (ties everywhere) and {0,1}, where zero-length closure edges and
// their ties hold Prim's keys to the float compares they replace.
var costModes = []func(*rand.Rand) float64{
	func(rng *rand.Rand) float64 { return 1 + rng.Float64()*9 },
	func(*rand.Rand) float64 { return 1 },
	func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(2)) },
	func(rng *rand.Rand) float64 { return float64(rng.Intn(2)) },
}

func randomGraphWithCosts(rng *rand.Rand, n, extra int, cost func(*rand.Rand) float64) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, cost(rng))
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, cost(rng))
		}
	}
	return g
}

func unitGrid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(r*cols+c, r*cols+c+1, 1)
			}
			if r+1 < rows {
				g.MustAddEdge(r*cols+c, (r+1)*cols+c, 1)
			}
		}
	}
	return g
}

func hypercube(dim int) *graph.Graph {
	g := graph.New(1 << dim)
	for v := 0; v < 1<<dim; v++ {
		for b := 0; b < dim; b++ {
			if u := v ^ 1<<b; v < u {
				g.MustAddEdge(v, u, 1)
			}
		}
	}
	return g
}

// generalBranchGraph is the smallest instance found whose expansion is
// not a tree: the paths 0 -> 6 and 6 -> 8 take different sides of the
// diamond 3-4-6-5 in the metric's rows, so the union holds its cycle.
func generalBranchGraph() (g *graph.Graph, dests []int) {
	g = graph.New(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {6, 5}, {6, 4}, {3, 7}, {7, 8}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	return g, []int{6, 8}
}

func TestSweepDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 330; trial++ {
		n := 2 + rng.Intn(28)
		g := randomGraphWithCosts(rng, n, rng.Intn(2*n), costModes[trial%len(costModes)])
		dests := make([]int, 1+rng.Intn(8))
		for i := range dests {
			dests[i] = rng.Intn(n) // duplicates and root-in-D come up on their own
		}
		diffSweep(t, g, g.APSP(), dests)
	}
}

func TestSweepDifferentialLattices(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := []*graph.Graph{unitGrid(4, 4), unitGrid(6, 6), unitGrid(3, 9), unitGrid(9, 8), hypercube(3), hypercube(5), hypercube(6)}
	for _, g := range graphs {
		m := g.APSP()
		for trial := 0; trial < 6; trial++ {
			diffSweep(t, g, m, rng.Perm(g.NumNodes())[:2+rng.Intn(7)])
		}
	}
}

// skew makes m bitwise asymmetric: every finite distance from a lower
// to a higher node goes up by one ulp, so reading a closure distance
// in the other orientation changes which terminal Prim picks.
func skew(m *graph.Metric) *graph.Metric {
	for u, row := range m.Dist {
		for v := u + 1; v < len(row); v++ {
			if row[v] != graph.Inf {
				row[v] = math.Nextafter(row[v], graph.Inf)
			}
		}
	}
	return m
}

// Prim's order where every compare is a tie or an ulp apart: a
// unit-weight lattice with duplicate destinations, every node — the
// destinations included — as root, on the metric as built and skewed.
func TestSweepDifferentialPickOrder(t *testing.T) {
	g := unitGrid(5, 5)
	dests := []int{12, 0, 24, 12, 4, 20, 0, 7, 17, 24}
	diffSweep(t, g, g.APSP(), dests)
	diffSweep(t, g, skew(g.APSP()), dests)
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(20)
		g := randomGraphWithCosts(rng, n, rng.Intn(2*n), costModes[trial%len(costModes)])
		d := make([]int, 2+rng.Intn(8))
		for i := range d {
			d[i] = rng.Intn(n)
		}
		diffSweep(t, g, skew(g.APSP()), d)
	}
}

func TestSweepDifferentialEdgeCases(t *testing.T) {
	path := graph.New(5)
	for v := 1; v < 5; v++ {
		path.MustAddEdge(v-1, v, 1)
	}
	split := graph.New(6) // two components: 0-1-2 and 3-4, node 5 alone
	split.MustAddEdge(0, 1, 1)
	split.MustAddEdge(1, 2, 2)
	split.MustAddEdge(3, 4, 1)
	parallel := graph.New(3) // parallel edges, equal and unequal costs
	parallel.MustAddEdge(0, 1, 2)
	parallel.MustAddEdge(0, 1, 1)
	parallel.MustAddEdge(1, 0, 1)
	parallel.MustAddEdge(1, 2, 3)
	parallel.MustAddEdge(2, 1, 3)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		dests []int
	}{
		{"no destinations", path, nil},
		{"one destination", path, []int{3}},
		{"duplicates", path, []int{4, 0, 4, 0, 2, 2}},
		{"every node", path, []int{0, 1, 2, 3, 4}},
		{"unreachable for some roots", split, []int{0, 2}},
		{"unreachable for every root", split, []int{1, 4}},
		{"isolated destination", split, []int{5}},
		{"parallel edges", parallel, []int{2, 0}},
	} {
		for _, l := range labellings {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				g, dests := l.relabel(tc.g, tc.dests)
				diffSweep(t, g, g.APSP(), dests)
			})
		}
	}
	if _, err := KMB(path, path.APSP(), nil); !errors.Is(err, ErrNoTerminals) {
		t.Errorf("KMB of no terminals: %v, want ErrNoTerminals", err)
	}
}

// boundTolerance is the relative rounding a bound may show over a
// tree it equals in exact arithmetic: with two destinations and the
// root one of them, the bound is the metric distance, summed along the
// path, and the tree its edges, summed in id order.
const boundTolerance = 1e-12

// checkLowerBound holds a sweep's LowerBound over dests to what it
// promises: 0 below two distinct destinations, +Inf exactly when two
// of them are disconnected, never below the spanning-tree bound it
// improves on, and otherwise no more than the tree of any root. On
// graphs of at most exactNodes nodes it also holds it to the exact
// optimum over D: never above it, and equal to it for two or three
// destinations. The bound and the moats are the rescan's bits too. It
// returns the largest bound-to-tree ratio seen.
func checkLowerBound(t testing.TB, g *graph.Graph, m *graph.Metric, dests []int) (worst float64) {
	t.Helper()
	s := NewSweep(g, m, dests)
	defer s.Close()
	lb := s.LowerBound()
	checkMoatsMatchRescan(t, s)
	distinct := map[int]bool{}
	split := false
	for _, a := range dests {
		distinct[a] = true
		for _, b := range dests {
			split = split || m.Dist[a][b] == graph.Inf
		}
	}
	switch {
	case len(distinct) < 2:
		if lb != 0 {
			t.Fatalf("dests %v: bound %v, want 0", dests, lb)
		}
	case split:
		if !math.IsInf(lb, 1) {
			t.Fatalf("disconnected dests %v: bound %v, want +Inf", dests, lb)
		}
		return 0
	case lb < 0 || math.IsInf(lb, 0) || math.IsNaN(lb):
		t.Fatalf("dests %v: bound %v, want finite and non-negative", dests, lb)
	case lb == 0:
		// Only zero-cost paths join D, so the tree rooted in D is free.
		if cost, err := s.Cost(dests[0]); err != nil || cost != 0 {
			t.Fatalf("dests %v: bound 0, tree rooted at %d costs %v (%v)", dests, dests[0], cost, err)
		}
	}
	if span := s.spanBound(); lb < span {
		t.Fatalf("dests %v: bound %v below the spanning-tree bound %v", dests, lb, span)
	}
	if len(distinct) >= 2 && g.NumNodes() <= exactNodes {
		dw, err := NewDWTable(g, m, dests)
		if err != nil {
			t.Fatal(err)
		}
		// skew moves a distance by an ulp, and the optimum read off it
		// with it, so equality is within one ulp too.
		opt := dw.Cost(dests[0])
		if lb > math.Nextafter(opt, graph.Inf)*(1+boundTolerance) {
			t.Fatalf("dests %v: bound %v above the optimum %v", dests, lb, opt)
		}
		if len(distinct) <= 3 && lb < math.Nextafter(opt, 0)*(1-boundTolerance) {
			t.Fatalf("dests %v: bound %v, want the optimum %v", dests, lb, opt)
		}
	}
	for root := 0; root < g.NumNodes(); root++ {
		cost, err := s.Cost(root)
		if err != nil {
			continue // root cannot reach D; there is no tree to bound
		}
		if lb > cost*(1+boundTolerance) {
			t.Fatalf("root %d dests %v: bound %v above the tree's cost %v", root, dests, lb, cost)
		}
		if cost > 0 {
			worst = max(worst, lb/cost)
		}
	}
	return worst
}

// exactNodes is the largest graph checkLowerBound compares with the
// Dreyfus-Wagner optimum.
const exactNodes = 12

// LowerBound never exceeds a tree it bounds, on the instances the
// differential tests sweep: random graphs under every cost mode,
// lattices, and the edge cases (no destination, one,
// duplicates, roots inside D, destinations in separate components).
func TestSweepLowerBound(t *testing.T) {
	worst := 0.0
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 330; trial++ {
		n := 2 + rng.Intn(28)
		g := randomGraphWithCosts(rng, n, rng.Intn(2*n), costModes[trial%len(costModes)])
		dests := make([]int, 1+rng.Intn(8))
		for i := range dests {
			dests[i] = rng.Intn(n)
		}
		worst = max(worst, checkLowerBound(t, g, g.APSP(), dests))
	}
	for _, g := range []*graph.Graph{unitGrid(4, 4), unitGrid(6, 6), unitGrid(3, 9), hypercube(3), hypercube(5)} {
		m := g.APSP()
		for trial := 0; trial < 6; trial++ {
			worst = max(worst, checkLowerBound(t, g, m, rng.Perm(g.NumNodes())[:2+rng.Intn(7)]))
		}
		worst = max(worst, checkLowerBound(t, g, skew(g.APSP()), []int{0, g.NumNodes() - 1, 0, 1}))
	}
	path := graph.New(5)
	for v := 1; v < 5; v++ {
		path.MustAddEdge(v-1, v, 1)
	}
	split := graph.New(6) // two components: 0-1-2 and 3-4, node 5 alone
	split.MustAddEdge(0, 1, 1)
	split.MustAddEdge(1, 2, 2)
	split.MustAddEdge(3, 4, 1)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		dests []int
	}{
		{"no destinations", path, nil},
		{"one destination", path, []int{3}},
		{"one destination twice", path, []int{3, 3}},
		{"duplicates", path, []int{4, 0, 4, 0, 2, 2}},
		{"every node", path, []int{0, 1, 2, 3, 4}},
		{"one component", split, []int{0, 2}},
		{"two components", split, []int{1, 4}},
		{"isolated destination", split, []int{5, 0}},
	} {
		for _, l := range labellings {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				g, dests := l.relabel(tc.g, tc.dests)
				checkLowerBound(t, g, g.APSP(), dests)
			})
		}
	}
	// Two destinations on a path: the bound is their distance, which
	// the tree rooted at either one costs exactly.
	s := NewSweep(path, path.APSP(), []int{0, 4})
	defer s.Close()
	if lb := s.LowerBound(); lb != 4 {
		t.Errorf("path 0..4: bound %v, want 4", lb)
	}
	t.Logf("largest bound-to-tree ratio %.3f", worst)
}

// On graphs small enough for the exact optimum, the bound never
// exceeds it and meets it at two and three destinations, under every
// cost mode, skewed or not.
func TestSweepLowerBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sum, n4 := 0.0, 0
	for trial := 0; trial < 400; trial++ {
		n := 4 + rng.Intn(exactNodes-3)
		g := randomGraphWithCosts(rng, n, rng.Intn(2*n), costModes[trial%len(costModes)])
		dests := rng.Perm(n)[:2+rng.Intn(min(n, 9)-1)]
		m := g.APSP()
		if trial%5 == 0 {
			skew(m)
		}
		checkLowerBound(t, g, m, dests)
		if len(dests) < 4 {
			continue
		}
		dw, err := NewDWTable(g, m, dests)
		if err != nil {
			t.Fatal(err)
		}
		if opt := dw.Cost(dests[0]); opt > 0 {
			s := NewSweep(g, m, dests)
			sum, n4 = sum+s.LowerBound()/opt, n4+1
			s.Close()
		}
	}
	t.Logf("mean bound-to-optimum ratio at four or more destinations %.3f over %d sets", sum/float64(n4), n4)
}

// Two instances where the moats reach the optimum, 4, and the
// Steiner-ratio bound does not. On the path 0-1-2-3-4 with D = {0, 1,
// 3, 4}, the moats of 1, 3 and 4 each grow 1 (1 then stops at the
// root 0, and 3 and 4 merge), and the merged moat grows 1 more until it
// reaches 1's: the ratio bound reads 4/1.5. On a spider whose centre
// and four legs are all in D, rooted at a leg, the moats of the centre
// and the other three legs each grow 1, when the centre's reaches the
// root and the legs' reach the centre: the ratio bound reads 4/1.6.
func TestSweepLowerBoundMoats(t *testing.T) {
	path := graph.New(5)
	for v := 1; v < 5; v++ {
		path.MustAddEdge(v-1, v, 1)
	}
	spider := graph.New(5)
	for leg := 1; leg < 5; leg++ {
		spider.MustAddEdge(0, leg, 1)
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		dests []int
		span  float64
	}{
		{"path", path, []int{0, 1, 3, 4}, 4 / 1.5},
		{"spider", spider, []int{1, 2, 3, 4, 0}, 4 / 1.6},
	} {
		s := NewSweep(tc.g, tc.g.APSP(), tc.dests)
		if span, lb := s.spanBound(), s.LowerBound(); span != tc.span || lb != 4 {
			t.Errorf("%s: spanning-tree bound %v and bound %v, want %v and 4", tc.name, span, lb, tc.span)
		}
		s.Close()
	}
}

// The tree test must be allowed to fail: on this instance the
// expansion for root 0 holds a cycle, and the sweep has to notice and
// fall back to Kruskal and pruning.
func TestSweepGeneralBranch(t *testing.T) {
	g, dests := generalBranchGraph()
	c := diffSweep(t, g, g.APSP(), dests)
	if c.GeneralTrees == 0 {
		t.Fatal("no root took the general branch; the instance no longer covers it")
	}
	// Tree and Cost each build a tree per root that reaches D.
	if c.Trees < 2*c.GeneralTrees || c.Trees > 2*int64(g.NumNodes()) {
		t.Errorf("sweep counted %d trees, %d of them general, over %d roots", c.Trees, c.GeneralTrees, g.NumNodes())
	}
	if c.MemoFills == 0 || c.MemoHits == 0 {
		t.Errorf("path memo unused: %+v", c)
	}
}

// On a paper-sized instance, pricing every root over one destination
// set walks each destination-to-destination path once and answers
// most lookups from the memo.
func TestSweepPathMemoOnPaperInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := netgen.Generate(netgen.PaperConfig(100, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSweep(net.Graph(), net.Metric(), task.Destinations)
	defer s.Close()
	for root := 0; root < net.NumNodes(); root++ {
		if _, err := s.Cost(root); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
	c := s.Counters()
	t.Logf("%+v", c)
	if c.MemoHits <= c.MemoFills {
		t.Errorf("path memo answered %d lookups and walked %d, want most answered", c.MemoHits, c.MemoFills)
	}
}

// fuzzGraph decodes a graph from fuzz bytes: n nodes on a spanning
// path (so most roots reach most destinations), then one extra edge
// per byte triple. Bit 7 of the cost byte picks a fractional cost, bit
// 6 a zero cost (−0 when bit 0 is set too), otherwise costs are 1 or 2
// and ties are everywhere.
func fuzzGraph(n int, spine bool, edges []byte) *graph.Graph {
	g := graph.New(n)
	if spine {
		for v := 1; v < n; v++ {
			g.MustAddEdge(v-1, v, 1)
		}
	}
	for ; len(edges) >= 3; edges = edges[3:] {
		u, v, c := int(edges[0])%n, int(edges[1])%n, edges[2]
		if u == v {
			continue
		}
		cost := float64(1 + c&1)
		switch {
		case c&0x80 != 0:
			cost = 1 + float64(c&0x7f)/16
		case c&0x40 != 0:
			cost = math.Copysign(0, -float64(c&1))
		}
		g.MustAddEdge(u, v, cost)
	}
	return g
}

func FuzzSweepDifferential(f *testing.F) {
	// The general-branch instance, edge for edge.
	f.Add(uint8(9), false, []byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 3, 5, 0, 6, 5, 0, 6, 4, 0, 3, 7, 0, 7, 8, 0}, []byte{6, 8}, uint8(1))
	// A 4x4 unit grid's worth of ties, a float-cost tangle, two
	// components, duplicates and the empty destination set.
	f.Add(uint8(16), true, []byte{0, 4, 0, 4, 8, 0, 8, 12, 0, 1, 5, 0, 5, 9, 0, 9, 13, 0, 2, 6, 0, 6, 10, 0, 3, 7, 0, 11, 15, 0}, []byte{15, 5, 10, 3}, uint8(0))
	f.Add(uint8(12), true, []byte{0, 7, 0x93, 3, 9, 0xa1, 2, 11, 0x85, 5, 1, 0xff, 8, 4, 0x80}, []byte{11, 0, 6}, uint8(2))
	f.Add(uint8(6), false, []byte{0, 1, 0, 1, 2, 1, 3, 4, 0}, []byte{2, 4, 0}, uint8(0))
	f.Add(uint8(5), true, []byte{}, []byte{4, 4, 0, 0}, uint8(1))
	f.Add(uint8(3), true, []byte{}, []byte{}, uint8(2))
	// TestSweepDifferentialPickOrder's lattice, duplicates and all, as
	// built and (bit 7 of the metric byte) skewed.
	var lattice []byte
	for _, e := range unitGrid(5, 5).Edges() {
		lattice = append(lattice, byte(e.U), byte(e.V), 0)
	}
	pickOrder := []byte{12, 0, 24, 12, 4, 20, 0, 7, 17, 24}
	f.Add(uint8(25), false, lattice, pickOrder, uint8(1))
	f.Add(uint8(25), false, lattice, pickOrder, uint8(0x80|2))
	// Zero and −0 costs: a spine with free shortcuts and a −0 edge
	// parallel to a +0 one, so closure distances tie at 0 in both signs;
	// then a lattice whose rows cost nothing.
	f.Add(uint8(10), true, []byte{0, 5, 0x40, 5, 0, 0x41, 2, 7, 0x41, 3, 8, 0x40, 1, 9, 0x41, 6, 4, 0x40}, []byte{9, 0, 7, 4, 9}, uint8(0))
	var zeroRows []byte
	for _, e := range unitGrid(4, 4).Edges() {
		c := byte(0)
		if e.V == e.U+1 {
			c = 0x40 | byte(e.U&1)
		}
		zeroRows = append(zeroRows, byte(e.U), byte(e.V), c)
	}
	f.Add(uint8(16), false, zeroRows, []byte{15, 0, 5, 10, 3, 12}, uint8(1))
	// Only bit 7 of the last byte is read: it skews the metric.
	f.Fuzz(func(t *testing.T, n uint8, spine bool, edges, dests []byte, metric uint8) {
		if n == 0 || n > 48 || len(edges) > 3*96 || len(dests) > 12 {
			t.Skip()
		}
		g := fuzzGraph(int(n), spine, edges)
		d := make([]int, len(dests))
		for i, b := range dests {
			d[i] = int(b) % int(n)
		}
		m := g.APSP()
		if metric&0x80 != 0 {
			skew(m)
		}
		diffSweep(t, g, m, d)
		checkLowerBound(t, g, m, d)
	})
}

// TakahashiMatsuyama used to range over maps: on this grid most
// repeats returned a different edge set from the first.
func TestTakahashiMatsuyamaDeterministic(t *testing.T) {
	g := unitGrid(6, 6)
	m := g.APSP()
	dests := []int{35, 5, 30, 14, 21}
	first, err := TakahashiMatsuyama(g, m, 0, dests)
	if err != nil {
		t.Fatal(err)
	}
	if !isTreeSpanning(g, first.Edges, append([]int{0}, dests...)) {
		t.Fatalf("not a tree spanning the terminals: %v", first.Edges)
	}
	for rep := 1; rep < 200; rep++ {
		again, err := TakahashiMatsuyama(g, m, 0, dests)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again.Edges, first.Edges) || again.Cost != first.Cost {
			t.Fatalf("repeat %d: edges %v cost %v, first call %v cost %v", rep, again.Edges, again.Cost, first.Edges, first.Cost)
		}
	}
}
