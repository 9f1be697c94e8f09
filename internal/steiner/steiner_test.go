package steiner

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sftree/internal/graph"
)

// bruteForceSteiner enumerates all subsets of non-terminal nodes, builds
// the MST of the induced subgraph, and keeps the cheapest tree spanning
// the terminals. Exponential in |V| - |terminals|; usable up to ~12
// optional nodes. It serves as an independent optimality oracle.
func bruteForceSteiner(t *testing.T, g *graph.Graph, terminals []int) float64 {
	t.Helper()
	n := g.NumNodes()
	isTerm := make([]bool, n)
	for _, v := range terminals {
		isTerm[v] = true
	}
	var optional []int
	for v := 0; v < n; v++ {
		if !isTerm[v] {
			optional = append(optional, v)
		}
	}
	if len(optional) > 14 {
		t.Fatalf("brute force too large: %d optional nodes", len(optional))
	}
	best := graph.Inf
	for mask := 0; mask < 1<<len(optional); mask++ {
		include := make([]bool, n)
		for _, v := range terminals {
			include[v] = true
		}
		for i, v := range optional {
			if mask&(1<<i) != 0 {
				include[v] = true
			}
		}
		// MST over the induced subgraph.
		sub := graph.New(n)
		for _, e := range g.Edges() {
			if include[e.U] && include[e.V] {
				sub.MustAddEdge(e.U, e.V, e.Cost)
			}
		}
		edges, cost := mstKruskal(sub)
		if !isTreeSpanning(sub, edges, terminals) {
			continue
		}
		// MST may span several components; require terminals connected.
		var uf graph.UnionFind
		uf.Reset(n)
		for _, id := range edges {
			e := sub.Edge(id)
			uf.Union(e.U, e.V)
		}
		connected := true
		for _, v := range terminals[1:] {
			if uf.Find(terminals[0]) != uf.Find(v) {
				connected = false
				break
			}
		}
		if !connected {
			continue
		}
		// Prune non-terminal leaves for a fair cost.
		pruned := Prune(sub, edges, terminals)
		var c float64
		for _, id := range pruned {
			c += sub.Edge(id).Cost
		}
		_ = cost
		if c < best {
			best = c
		}
	}
	return best
}

func randomConnectedGraph(rng *rand.Rand, n, extraEdges int) *graph.Graph {
	return randomGraphWithCosts(rng, n, extraEdges, costModes[0])
}

func sampleTerminals(rng *rand.Rand, n, k int) []int {
	perm := rng.Perm(n)
	return perm[:k]
}

func TestKMBOnKnownGraph(t *testing.T) {
	// Star-with-shortcut: terminals {0,1,2}; optimal tree uses hub 3.
	//
	//	0 -1- 3, 1 -1- 3, 2 -1- 3, and expensive direct edges cost 10.
	g := graph.New(4)
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 10)
	m := g.APSP()
	tree, err := KMB(g, m, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 3 {
		t.Errorf("KMB cost = %v, want 3 (via hub)", tree.Cost)
	}
	if !isTreeSpanning(g, tree.Edges, []int{0, 1, 2}) {
		t.Error("KMB result does not span terminals")
	}
}

func TestKMBSingleAndEmptyTerminals(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	m := g.APSP()
	if _, err := KMB(g, m, nil); !errors.Is(err, ErrNoTerminals) {
		t.Errorf("empty terminals: got %v", err)
	}
	tree, err := KMB(g, m, []int{2})
	if err != nil || len(tree.Edges) != 0 || tree.Cost != 0 {
		t.Errorf("single terminal: tree=%+v err=%v", tree, err)
	}
	// Duplicate terminals collapse to one.
	tree, err = KMB(g, m, []int{2, 2, 2})
	if err != nil || tree.Cost != 0 {
		t.Errorf("duplicate single terminal: tree=%+v err=%v", tree, err)
	}
}

func TestKMBUnreachableTerminal(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	// node 2,3 disconnected
	g.MustAddEdge(2, 3, 1)
	m := g.APSP()
	if _, err := KMB(g, m, []int{0, 2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("got %v, want ErrUnreachable", err)
	}
}

func TestDreyfusWagnerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(8) // 5..12 nodes
		g := randomConnectedGraph(rng, n, n)
		k := 2 + rng.Intn(3) // 2..4 terminals
		terms := sampleTerminals(rng, n, k)
		m := g.APSP()
		exact, err := DreyfusWagner(g, m, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForceSteiner(t, g, terms)
		if math.Abs(exact.Cost-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d terms=%v): DW %v, brute force %v",
				trial, n, terms, exact.Cost, want)
		}
		if !isTreeSpanning(g, exact.Edges, terms) {
			t.Fatalf("trial %d: DW result not a spanning tree of terminals", trial)
		}
	}
}

func TestKMBWithinTwiceOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(9)
		g := randomConnectedGraph(rng, n, 2*n)
		k := 2 + rng.Intn(4)
		terms := sampleTerminals(rng, n, k)
		m := g.APSP()
		approx, err := KMB(g, m, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact, err := DreyfusWagner(g, m, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if approx.Cost < exact.Cost-1e-9 {
			t.Fatalf("trial %d: KMB %v beat exact %v", trial, approx.Cost, exact.Cost)
		}
		ratio := 2 * (1 - 1/float64(len(terms)))
		if approx.Cost > ratio*exact.Cost+1e-9 {
			t.Fatalf("trial %d: KMB %v > %v * exact %v", trial, approx.Cost, ratio, exact.Cost)
		}
	}
}

func TestTakahashiMatsuyamaFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(9)
		g := randomConnectedGraph(rng, n, 2*n)
		k := 2 + rng.Intn(4)
		terms := sampleTerminals(rng, n, k)
		m := g.APSP()
		tm, err := TakahashiMatsuyama(g, m, terms[0], terms[1:])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !isTreeSpanning(g, tm.Edges, terms) {
			t.Fatalf("trial %d: TM result not a tree spanning terminals", trial)
		}
		exact, err := DreyfusWagner(g, m, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tm.Cost > 2*exact.Cost+1e-9 {
			t.Fatalf("trial %d: TM %v > 2 * exact %v", trial, tm.Cost, exact.Cost)
		}
	}
}

func TestDreyfusWagnerTerminalLimit(t *testing.T) {
	g := graph.New(20)
	for v := 1; v < 20; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	m := g.APSP()
	terms := make([]int, MaxExactTerminals+1)
	for i := range terms {
		terms[i] = i
	}
	if _, err := DreyfusWagner(g, m, terms); !errors.Is(err, ErrTooManyTerminals) {
		t.Errorf("got %v, want ErrTooManyTerminals", err)
	}
}

func TestDreyfusWagnerPathGraph(t *testing.T) {
	// On a path graph, the Steiner tree over endpoints is the whole path.
	g := graph.New(6)
	total := 0.0
	for v := 1; v < 6; v++ {
		g.MustAddEdge(v-1, v, float64(v))
		total += float64(v)
	}
	m := g.APSP()
	tree, err := DreyfusWagner(g, m, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != total {
		t.Errorf("cost = %v, want %v", tree.Cost, total)
	}
	// With a middle terminal added, cost must not change.
	tree2, err := DreyfusWagner(g, m, []int{0, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Cost != total {
		t.Errorf("cost with middle terminal = %v, want %v", tree2.Cost, total)
	}
}

func TestPruneRemovesDanglingBranches(t *testing.T) {
	// Path 0-1-2 with dangling 1-3; terminals {0,2}.
	g := graph.New(4)
	a := g.MustAddEdge(0, 1, 1)
	b := g.MustAddEdge(1, 2, 1)
	c := g.MustAddEdge(1, 3, 1)
	kept := Prune(g, []int{a, b, c}, []int{0, 2})
	if len(kept) != 2 {
		t.Fatalf("kept %d edges, want 2", len(kept))
	}
	for _, id := range kept {
		if id == c {
			t.Error("dangling edge 1-3 survived pruning")
		}
	}
}

func TestPruneCascades(t *testing.T) {
	// Chain 0-1-2-3-4, terminals {0,1}: edges 1-2,2-3,3-4 all pruned.
	g := graph.New(5)
	ids := make([]int, 0, 4)
	for v := 1; v < 5; v++ {
		ids = append(ids, g.MustAddEdge(v-1, v, 1))
	}
	kept := Prune(g, ids, []int{0, 1})
	if len(kept) != 1 {
		t.Fatalf("kept %d edges, want 1 (cascading prune)", len(kept))
	}
}

func TestTreeNodes(t *testing.T) {
	g := graph.New(4)
	a := g.MustAddEdge(0, 1, 1)
	tree := Tree{Edges: []int{a}, Cost: 1}
	nodes := tree.Nodes(g, []int{3})
	if !nodes[0] || !nodes[1] || !nodes[3] || nodes[2] {
		t.Errorf("nodes = %v", nodes)
	}
}
