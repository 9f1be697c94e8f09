package steiner

import (
	"fmt"

	"sftree/internal/graph"
)

// MaxExactTerminals caps the Dreyfus-Wagner terminal count; the DP is
// exponential (3^t) in the number of terminals.
const MaxExactTerminals = 16

// DreyfusWagner computes an exact minimum Steiner tree over the given
// terminals using the Dreyfus-Wagner dynamic program, O(3^t * n +
// 2^t * n^2). It returns ErrTooManyTerminals beyond MaxExactTerminals.
func DreyfusWagner(g *graph.Graph, m *graph.Metric, terminals []int) (Tree, error) {
	terminals = dedupTerminals(terminals)
	switch {
	case len(terminals) == 0:
		return Tree{}, ErrNoTerminals
	case len(terminals) == 1:
		return Tree{}, nil
	case len(terminals) > MaxExactTerminals:
		return Tree{}, fmt.Errorf("%w: %d > %d", ErrTooManyTerminals, len(terminals), MaxExactTerminals)
	}
	root := terminals[0]
	for _, a := range terminals[1:] {
		if m.Dist[root][a] == graph.Inf {
			return Tree{}, fmt.Errorf("%w: %d and %d", ErrUnreachable, root, a)
		}
	}

	rest := terminals[1:] // DP is over subsets of these, rooted at terminals[0]
	t := len(rest)
	n := g.NumNodes()
	full := 1 << t

	// dp[mask][v]: cost of cheapest tree spanning rest-subset mask plus v.
	dp := make([][]float64, full)
	// choice[mask][v] encodes reconstruction:
	//   kind 0: leaf base case (mask has one bit, v == that terminal; no action)
	//   kind 1: extend — tree at u, plus shortest path u..v (store u)
	//   kind 2: merge — dp[sub][v] + dp[mask^sub][v] (store sub)
	type choiceT struct {
		kind int8
		arg  int32
	}
	choice := make([][]choiceT, full)
	for mask := 1; mask < full; mask++ {
		dp[mask] = make([]float64, n)
		choice[mask] = make([]choiceT, n)
		for v := 0; v < n; v++ {
			dp[mask][v] = graph.Inf
		}
	}
	for i, term := range rest {
		mask := 1 << i
		for v := 0; v < n; v++ {
			dp[mask][v] = m.Dist[term][v]
			choice[mask][v] = choiceT{kind: 1, arg: int32(term)}
		}
		dp[mask][term] = 0
		choice[mask][term] = choiceT{kind: 0}
	}

	for mask := 1; mask < full; mask++ {
		if mask&(mask-1) == 0 {
			continue // singleton handled above
		}
		// Merge step.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue // each partition once
			}
			ds, do := dp[sub], dp[other]
			for v := 0; v < n; v++ {
				if c := ds[v] + do[v]; c < dp[mask][v] {
					dp[mask][v] = c
					choice[mask][v] = choiceT{kind: 2, arg: int32(sub)}
				}
			}
		}
		// Extend step: dp[mask][v] = min_u dp[mask][u] + d(u,v).
		// A full O(n^2) relaxation (correct because d is a metric).
		row := dp[mask]
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if u == v || row[u] == graph.Inf {
					continue
				}
				if c := row[u] + m.Dist[u][v]; c < row[v] {
					row[v] = c
					choice[mask][v] = choiceT{kind: 1, arg: int32(u)}
				}
			}
		}
	}

	// Reconstruct edges.
	edgeSet := make(map[int]bool)
	type frame struct {
		mask int
		v    int
	}
	stack := []frame{{mask: full - 1, v: root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ch := choice[f.mask][f.v]
		switch ch.kind {
		case 0:
			// base: nothing to add
		case 1:
			u := int(ch.arg)
			m.EachEdge(u, f.v, func(_, id int) { edgeSet[id] = true })
			stack = append(stack, frame{mask: f.mask, v: u})
		case 2:
			sub := int(ch.arg)
			stack = append(stack, frame{mask: sub, v: f.v}, frame{mask: f.mask ^ sub, v: f.v})
		}
	}
	edges := make([]int, 0, len(edgeSet))
	for id := range edgeSet {
		edges = append(edges, id)
	}
	// The reconstructed edge union costs at most the DP optimum (path
	// overlap only removes cost) and is feasible, hence it is optimal.
	return treeFromEdges(g, Prune(g, mstOfEdgeSubset(g, edges), terminals)), nil
}
