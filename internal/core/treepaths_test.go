package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/steiner"
)

// treePathsRef is the map-based formulation treePaths replaced: same
// adjacency order, same depth-first traversal, one map per role.
func treePathsRef(g *graph.Graph, tree steiner.Tree, root int, dests []int) ([][]int, bool) {
	parent := map[int]int{root: -1}
	adj := make(map[int][]int)
	for _, id := range tree.Edges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if _, seen := parent[v]; !seen {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	out := make([][]int, len(dests))
	for i, d := range dests {
		if _, ok := parent[d]; !ok {
			return nil, false
		}
		var rev []int
		for x := d; x != -1; x = parent[x] {
			rev = append(rev, x)
		}
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		out[i] = rev
	}
	return out, true
}

// TestTreePathsMatchesReference compares the pooled, slice-backed
// treePaths with the map formulation on random edge subsets of random
// graphs: trees, forests that miss a destination (the error path) and
// sets with cycles, where the parents depend on traversal order. The
// calls share one scratch across graphs of different sizes (it grows
// twice on the way), so a call that failed to restore its entries
// would corrupt a later one. The paths of one call lie end to end in
// one array: appending to any of them must leave the next alone.
func TestTreePathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var missed, cyclic int
	sc := getScratch(2)
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(40)
		if len(sc.head) < n {
			scratchPool.Put(sc)
			sc = getScratch(n)
		}
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(rng.Intn(v), v, 1)
		}
		for i := rng.Intn(n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(u, v, 1)
			}
		}
		var edges []int
		for _, id := range rng.Perm(g.NumEdges()) {
			if rng.Intn(3) > 0 {
				edges = append(edges, id)
			}
		}
		if len(edges) >= n {
			cyclic++
		}
		root := rng.Intn(n)
		dests := rng.Perm(n)[:1+rng.Intn(n-1)]
		tree := steiner.Tree{Edges: edges}

		want, ok := treePathsRef(g, tree, root, dests)
		got, err := treePaths(g, tree, root, dests, sc)
		if !ok {
			missed++
			if !errors.Is(err, ErrNoFeasible) || got != nil {
				t.Fatalf("trial %d: got (%v, %v), want ErrNoFeasible", trial, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: paths %v, reference %v", trial, got, want)
		}
		for i := range got {
			got[i] = append(got[i], -1)
			got[i] = got[i][:len(got[i])-1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: appending to one path wrote into another: %v, reference %v", trial, got, want)
		}
	}
	if missed == 0 || cyclic == 0 {
		t.Fatalf("generator produced %d missed-destination and %d cyclic cases; want both", missed, cyclic)
	}
}
