package steiner

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sftree/internal/graph"
)

// Property: a Steiner tree over a superset of terminals costs at least
// as much as over the subset (monotonicity of the exact optimum).
func TestQuickExactSteinerMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 6+rng.Intn(8), 10)
		m := g.FloydWarshall()
		perm := rng.Perm(g.NumNodes())
		small := perm[:2+rng.Intn(2)]
		large := perm[:len(small)+1]
		ts, err := DreyfusWagner(g, m, small)
		if err != nil {
			return false
		}
		tl, err := DreyfusWagner(g, m, large)
		if err != nil {
			return false
		}
		return tl.Cost >= ts.Cost-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: KMB and Takahashi-Matsuyama always return trees that span
// the terminals, never beat the exact optimum, and respect their
// approximation guarantee.
func TestQuickHeuristicsSandwiched(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 6+rng.Intn(8), 14)
		m := g.FloydWarshall()
		k := 2 + rng.Intn(3)
		terms := rng.Perm(g.NumNodes())[:k]
		exact, err := DreyfusWagner(g, m, terms)
		if err != nil {
			return false
		}
		bound := 2 * (1 - 1/float64(k)) * exact.Cost
		kmb, err := KMB(g, m, terms)
		if err != nil || !g.IsTreeSpanning(kmb.Edges, terms) {
			return false
		}
		if kmb.Cost < exact.Cost-1e-9 || kmb.Cost > bound+1e-9 {
			return false
		}
		tm, err := TakahashiMatsuyama(g, m, terms[0], terms[1:])
		if err != nil || !g.IsTreeSpanning(tm.Edges, terms) {
			return false
		}
		return tm.Cost >= exact.Cost-1e-9 && tm.Cost <= bound+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the table over D read at a terminal equals the plain exact
// Steiner cost over D; at any node v it is at most that cost plus v's
// distance to a terminal, and it equals an independent exact solve
// over D plus v.
func TestQuickAllRootsConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 6+rng.Intn(6), 10)
		m := g.FloydWarshall()
		k := 2 + rng.Intn(3)
		terms := rng.Perm(g.NumNodes())[:k]
		table, err := NewDWTable(g, m, terms)
		if err != nil {
			return false
		}
		exact, err := DreyfusWagner(g, m, terms)
		if err != nil {
			return false
		}
		// At a terminal the extra node is free.
		for _, v := range terms {
			if math.Abs(table.Cost(v)-exact.Cost) > 1e-9 {
				return false
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if table.Cost(v) > exact.Cost+m.Dist[terms[0]][v]+1e-9 {
				return false
			}
			withV, err := DreyfusWagner(g, m, append(append([]int{}, terms...), v))
			if err != nil {
				return false
			}
			if math.Abs(table.Cost(v)-withV.Cost) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the table over D rebuilds, at every node v — terminals
// included — a tree that spans D plus v and costs Cost(v).
func TestQuickDWTableTreesSpan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 6+rng.Intn(8), 12)
		m := g.FloydWarshall()
		terms := rng.Perm(g.NumNodes())[:1+rng.Intn(4)]
		table, err := NewDWTable(g, m, terms)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			spans := terms // D plus v, each node once
			if !slices.Contains(terms, v) {
				spans = append([]int{v}, terms...)
			}
			tree, err := table.Tree(v)
			if err != nil || !g.IsTreeSpanning(tree.Edges, spans) {
				return false
			}
			if math.Abs(tree.Cost-table.Cost(v)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// A node that cannot reach D has no tree, and D must be connected.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	m := g.FloydWarshall()
	table, err := NewDWTable(g, m, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Tree(2); table.Cost(2) != graph.Inf || !errors.Is(err, ErrUnreachable) {
		t.Errorf("isolated node: cost %v, err %v; want +Inf and ErrUnreachable", table.Cost(2), err)
	}
	if _, err := NewDWTable(g, m, []int{0, 2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("disconnected terminals: got %v, want ErrUnreachable", err)
	}
}

// Property: pruning never removes a terminal-to-terminal connection:
// the pruned edge set still spans all terminals.
func TestQuickPrunePreservesSpan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 5+rng.Intn(10), 12)
		k := 2 + rng.Intn(3)
		terms := rng.Perm(g.NumNodes())[:k]
		// Start from a spanning tree of the whole graph (superset of any
		// Steiner tree).
		edges, _ := g.MSTKruskal()
		pruned := Prune(g, edges, terms)
		return g.IsTreeSpanning(pruned, terms)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
