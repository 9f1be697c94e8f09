package steiner

import (
	"sort"
	"testing"

	"sftree/internal/graph"
)

// mstKruskal returns the edge indices of a minimum spanning forest of g
// (a spanning tree when g is connected), computed with Kruskal's
// algorithm, together with its total cost.
func mstKruskal(g *graph.Graph) ([]int, float64) {
	order := make([]int, g.NumEdges())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.Edge(order[a]).Cost < g.Edge(order[b]).Cost
	})
	var uf graph.UnionFind
	uf.Reset(g.NumNodes())
	var (
		picked []int
		total  float64
	)
	for _, id := range order {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			picked = append(picked, id)
			total += e.Cost
		}
	}
	return picked, total
}

// isTreeSpanning reports whether the edge set forms a tree (acyclic,
// connected over its endpoints) that touches every node in nodes.
func isTreeSpanning(g *graph.Graph, edgeIDs []int, nodes []int) bool {
	var uf graph.UnionFind
	uf.Reset(g.NumNodes())
	touched := make(map[int]bool, 2*len(edgeIDs))
	for _, id := range edgeIDs {
		e := g.Edge(id)
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

func TestIsTreeSpanningRejectsCycle(t *testing.T) {
	g := graph.New(3)
	a := g.MustAddEdge(0, 1, 1)
	b := g.MustAddEdge(1, 2, 1)
	c := g.MustAddEdge(2, 0, 1)
	if isTreeSpanning(g, []int{a, b, c}, []int{0, 1, 2}) {
		t.Error("triangle accepted as tree")
	}
	if !isTreeSpanning(g, []int{a, b}, []int{0, 1, 2}) {
		t.Error("path rejected as spanning tree")
	}
	if isTreeSpanning(g, []int{a}, []int{0, 1, 2}) {
		t.Error("edge {0,1} cannot span node 2")
	}
}

// DreyfusWagner computes an exact minimum Steiner tree over the given
// terminals: the DWTable over terminals[1:], read at terminals[0]. It
// returns ErrTooManyTerminals beyond MaxExactTerminals. The KMB tests
// hold their trees to it as the exact oracle.
func DreyfusWagner(g *graph.Graph, m *graph.Metric, terminals []int) (Tree, error) {
	terminals = dedupTerminals(terminals)
	switch len(terminals) {
	case 0:
		return Tree{}, ErrNoTerminals
	case 1:
		return Tree{}, nil
	}
	t, err := NewDWTable(g, m, terminals[1:])
	if err != nil {
		return Tree{}, err
	}
	return t.Tree(terminals[0])
}

// Prune repeatedly removes edges incident to non-terminal leaves,
// returning the surviving edge indices sorted ascending: the leaf
// pruning every tree builder ends with (workspace.prune), on a copy of
// edgeIDs. The fixed point of leaf pruning is unique, so removal order
// does not matter.
func Prune(g *graph.Graph, edgeIDs []int, terminals []int) []int {
	ws := getWS()
	defer putWS(ws)
	ids := append([]int(nil), edgeIDs...)
	return ws.prune(g, ids, terminals)
}
