// Package steiner implements Steiner-tree algorithms on undirected
// weighted graphs: the Kou-Markowsky-Berman (KMB) 2-approximation used
// by the paper's stage-one algorithm, the Takahashi-Matsuyama
// path-growing heuristic (ablation alternative), and the exact
// Dreyfus-Wagner dynamic program, one table per terminal set, used as
// an optimality oracle on small terminal sets.
package steiner

import (
	"errors"
	"fmt"

	"sftree/internal/graph"
)

var (
	// ErrUnreachable reports that some terminal cannot be connected.
	ErrUnreachable = errors.New("steiner: terminal unreachable")
	// ErrNoTerminals reports an empty terminal set.
	ErrNoTerminals = errors.New("steiner: no terminals")
	// ErrTooManyTerminals reports a terminal set too large for the
	// exact Dreyfus-Wagner dynamic program.
	ErrTooManyTerminals = errors.New("steiner: too many terminals for exact solve")
)

// Tree is a Steiner tree: a set of edge indices of the host graph and
// their total cost. A tree over a single terminal is empty.
type Tree struct {
	Edges []int
	Cost  float64
}

// Nodes returns the set of nodes touched by the tree's edges plus the
// given terminals (so single-terminal trees still report the terminal).
func (t Tree) Nodes(g *graph.Graph, terminals []int) map[int]bool {
	nodes := make(map[int]bool, 2*len(t.Edges)+len(terminals))
	for _, id := range t.Edges {
		e := g.Edge(id)
		nodes[e.U] = true
		nodes[e.V] = true
	}
	for _, v := range terminals {
		nodes[v] = true
	}
	return nodes
}

// dedupTerminals returns the unique terminals, preserving order.
func dedupTerminals(terminals []int) []int {
	seen := make(map[int]bool, len(terminals))
	out := make([]int, 0, len(terminals))
	for _, v := range terminals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// KMB computes a Steiner tree spanning terminals using the
// Kou-Markowsky-Berman algorithm: MST of the metric closure over the
// terminals, expansion of closure edges into shortest paths, MST of the
// expansion, and pruning of non-terminal leaves. The result is within
// 2(1-1/|terminals|) of optimal. m must be the metric of g.
//
// It is a Sweep of one, rooted at the first terminal: all transient
// state lives in a pooled workspace, and the only allocations on the
// happy path are the returned Tree's edges.
func KMB(g *graph.Graph, m *graph.Metric, terminals []int) (Tree, error) {
	if len(terminals) == 0 {
		return Tree{}, ErrNoTerminals
	}
	var s Sweep
	s.init(g, m, terminals[1:])
	defer s.Close()
	return s.Tree(terminals[0])
}

// TakahashiMatsuyama grows a Steiner tree from root by repeatedly
// attaching the terminal closest (in metric distance) to the current
// tree via a shortest path. Approximation factor 2(1-1/|terminals|),
// often better than KMB in practice on geographic graphs. Among
// equally close pairs the earliest terminal in the caller's order wins,
// then the node that joined the tree first, so equal inputs give equal
// trees.
func TakahashiMatsuyama(g *graph.Graph, m *graph.Metric, root int, terminals []int) (Tree, error) {
	ws := getWS()
	defer putWS(ws)
	ws.rootTerms = append(append(ws.rootTerms[:0], root), terminals...)
	terminals = ws.dedup(ws.rootTerms, g.NumNodes())
	if len(terminals) == 1 {
		return Tree{}, nil
	}
	for _, a := range terminals[1:] {
		if m.Dist[root][a] == graph.Inf {
			return Tree{}, fmt.Errorf("%w: %d from root %d", ErrUnreachable, a, root)
		}
	}
	if cap(ws.attached) < len(terminals) {
		ws.attached = make([]bool, len(terminals))
	}
	attached := ws.attached[:len(terminals)] // by terminal index
	clear(attached)
	attached[0] = true
	ws.bumpNodes(g.NumNodes()) // marks the nodes of the growing tree
	ws.markNode(root)
	treeNodes := append(ws.treeNodes[:0], root)
	ws.bumpEdges(g.NumEdges())
	for range terminals[1:] {
		// Closest (terminal, attach-node) pair.
		bestIdx, bestAttach := -1, -1
		bestD := graph.Inf
		for i, term := range terminals {
			if attached[i] {
				continue
			}
			from := m.Dist[term]
			for _, v := range treeNodes {
				if d := from[v]; d < bestD {
					bestD, bestIdx, bestAttach = d, i, v
				}
			}
		}
		if bestIdx == -1 {
			return Tree{}, ErrUnreachable
		}
		attached[bestIdx] = true
		m.EachEdge(bestAttach, terminals[bestIdx], func(y, id int) {
			ws.markEdge(id)
			if ws.markNode(y) {
				treeNodes = append(treeNodes, y)
			}
		})
	}
	ws.treeNodes = treeNodes
	// The union of attach paths can in rare cases contain a cycle; take
	// an MST of the union and prune to be safe.
	return treeFromEdges(g, ws.prune(g, ws.mstOfCollected(g), terminals)), nil
}

// treeFromEdges copies the edge ids into a fresh Tree: callers hand
// it workspace-owned slices that are recycled after return.
func treeFromEdges(g *graph.Graph, edgeIDs []int) Tree {
	var cost float64
	for _, id := range edgeIDs {
		cost += g.Edge(id).Cost
	}
	return Tree{Edges: append([]int(nil), edgeIDs...), Cost: cost}
}
