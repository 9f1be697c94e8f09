// Package graph provides the undirected weighted graph that every
// other package in this repository builds on: adjacency storage and
// its flat CSR form, single-source shortest paths (Dijkstra), the
// all-pairs shortest-path metric (APSP), connectivity queries, and a
// disjoint-set forest.
//
// All costs are non-negative float64 values; math.Inf(1) denotes
// "unreachable". Node identifiers are dense integers in [0, N).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Inf is the cost used to mark unreachable node pairs.
var Inf = math.Inf(1)

var (
	// ErrNodeOutOfRange reports a node identifier outside [0, N).
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	// ErrNegativeCost reports an attempt to add an edge whose cost is
	// negative or not finite (NaN or +Inf).
	ErrNegativeCost = errors.New("graph: negative or non-finite edge cost")
	// ErrSelfLoop reports an attempt to add a self-loop edge.
	ErrSelfLoop = errors.New("graph: self loop")
)

// Arc is one directed half of an edge in an adjacency list.
type Arc struct {
	To   int     // head node
	Cost float64 // traversal cost
	Edge int     // index into Graph.Edges of the underlying edge
}

// Edge is an undirected edge with a non-negative cost.
type Edge struct {
	U, V int
	Cost float64
}

// Graph is an undirected weighted graph with dense integer node IDs.
// The zero value is an empty graph with no nodes; use New to create a
// graph with a fixed node count.
type Graph struct {
	adj   [][]Arc
	edges []Edge
	// gen counts topology mutations; derived caches (CSR, metric
	// closures) stamp it to detect staleness. See Generation.
	gen uint64
	// csr caches the flat adjacency built at generation csrGen,
	// guarded by csrMu so read-only solvers can share one graph.
	csrMu  sync.Mutex
	csr    *CSR
	csrGen uint64
}

// New returns an empty undirected graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Arc, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the graph's edge list. The returned slice is a copy and
// may be modified freely by the caller.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge inserts an undirected edge {u,v} with the given cost, which
// must be finite and non-negative, and returns its edge index. Parallel
// edges are permitted (the cheapest one wins during shortest-path
// computations automatically).
func (g *Graph) AddEdge(u, v int, cost float64) (int, error) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return 0, fmt.Errorf("%w: {%d,%d} with %d nodes", ErrNodeOutOfRange, u, v, len(g.adj))
	}
	if u == v {
		return 0, fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if !finiteCost(cost) {
		return 0, fmt.Errorf("%w: {%d,%d} cost %v", ErrNegativeCost, u, v, cost)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Cost: cost})
	g.adj[u] = append(g.adj[u], Arc{To: v, Cost: cost, Edge: id})
	g.adj[v] = append(g.adj[v], Arc{To: u, Cost: cost, Edge: id})
	g.gen++
	return id, nil
}

// finiteCost reports whether cost is a valid edge or arc cost: a
// finite non-negative number. An edge of cost +Inf would be listed by
// Edges and counted by Connected while every shortest path treats it
// as absent, so it is refused with the negative and NaN costs.
func finiteCost(cost float64) bool { return cost >= 0 && !math.IsInf(cost, 1) }

// MustAddEdge is AddEdge for statically known-good inputs (topology
// tables, tests). It panics on error, which per the style guide is
// acceptable only for programmer mistakes caught at startup.
func (g *Graph) MustAddEdge(u, v int, cost float64) int {
	id, err := g.AddEdge(u, v, cost)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether an edge {u,v} exists, and the cheapest cost
// among parallel edges if so.
func (g *Graph) HasEdge(u, v int) (float64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	best, found := Inf, false
	for _, a := range g.adj[u] {
		if a.To == v && a.Cost < best {
			best, found = a.Cost, true
		}
	}
	return best, found
}

// Clone returns a deep copy of the graph. The clone starts with a
// cold CSR cache but inherits the generation counter, so metric
// closures built against the original remain valid for it.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]Arc, len(g.adj)),
		edges: make([]Edge, len(g.edges)),
		gen:   g.gen,
	}
	copy(c.edges, g.edges)
	for i, l := range g.adj {
		c.adj[i] = make([]Arc, len(l))
		copy(c.adj[i], l)
	}
	return c
}

// Connected reports whether every node is reachable from node 0.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.adj[u] {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	return count == n
}

// Components returns the connected components as node-ID slices.
func (g *Graph) Components() [][]int {
	n := len(g.adj)
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, a := range g.adj[u] {
				if !seen[a.To] {
					seen[a.To] = true
					stack = append(stack, a.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
