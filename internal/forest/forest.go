// Package forest embeds a *service overlay forest*: several multicast
// tasks — typically with distinct sources, the setting of Kuo et al.
// (ICDCS'17, the paper's reference [26]) — served together on one
// network. Each task gets its own service function tree, but instance
// deployments are shared: the first tree to deploy a VNF on a node
// pays its setup cost, later trees reuse it for free, and node
// capacity is consumed exactly once. Sequential greedy embedding is
// order-sensitive, so Embed tries several admission orders and keeps
// the cheapest forest.
package forest

import (
	"errors"
	"fmt"
	"sort"

	"sftree/internal/core"
	"sftree/internal/nfv"
)

// ErrNoTasks reports an empty request.
var ErrNoTasks = errors.New("forest: no tasks")

// Result is one embedded forest.
type Result struct {
	// Trees holds one solver result per task, parallel to the input
	// task slice regardless of the admission order used internally.
	Trees []*core.Result
	// TotalCost is the forest objective: every instance's setup cost
	// once plus every tree's link cost.
	TotalCost float64
	// SharedInstances counts instances used by at least two trees.
	SharedInstances int
	// Order records the admission order that produced the result.
	Order []int
}

// Embed builds the forest. Admission orders tried: the given order,
// cheapest-first and costliest-first by a standalone cost probe, and
// most-destinations-first. The cheapest complete forest wins.
func Embed(net *nfv.Network, tasks []nfv.Task, opts core.Options) (*Result, error) {
	if len(tasks) == 0 {
		return nil, ErrNoTasks
	}
	for i, task := range tasks {
		if err := task.Validate(net); err != nil {
			return nil, fmt.Errorf("forest: task %d: %w", i, err)
		}
	}

	// Standalone probe per task for the cost-based orders.
	probe := make([]float64, len(tasks))
	for i, task := range tasks {
		res, err := core.Solve(net, task, opts)
		if err != nil {
			return nil, fmt.Errorf("forest: task %d infeasible even alone: %w", i, err)
		}
		probe[i] = res.FinalCost
	}

	orders := candidateOrders(tasks, probe)
	var best *Result
	for _, order := range orders {
		res, err := embedInOrder(net, tasks, order, opts)
		if err != nil {
			continue // this order ran out of capacity; try the next
		}
		if best == nil || res.TotalCost < best.TotalCost {
			best = res
		}
	}
	if best == nil {
		return nil, fmt.Errorf("forest: %w under every admission order", core.ErrNoFeasible)
	}
	return best, nil
}

// candidateOrders returns distinct admission orders to try.
func candidateOrders(tasks []nfv.Task, probe []float64) [][]int {
	identity := make([]int, len(tasks))
	for i := range identity {
		identity[i] = i
	}
	asc := append([]int(nil), identity...)
	sort.SliceStable(asc, func(a, b int) bool { return probe[asc[a]] < probe[asc[b]] })
	desc := append([]int(nil), identity...)
	sort.SliceStable(desc, func(a, b int) bool { return probe[desc[a]] > probe[desc[b]] })
	fanout := append([]int(nil), identity...)
	sort.SliceStable(fanout, func(a, b int) bool {
		return len(tasks[fanout[a]].Destinations) > len(tasks[fanout[b]].Destinations)
	})
	return dedupOrders([][]int{identity, asc, desc, fanout})
}

func dedupOrders(orders [][]int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, o := range orders {
		key := fmt.Sprint(o)
		if !seen[key] {
			seen[key] = true
			out = append(out, o)
		}
	}
	return out
}

// embedInOrder admits the tasks sequentially on a private clone,
// deploying each tree's instances so later trees reuse them.
func embedInOrder(net *nfv.Network, tasks []nfv.Task, order []int, opts core.Options) (*Result, error) {
	work := net.Clone()
	out := &Result{
		Trees: make([]*core.Result, len(tasks)),
		Order: append([]int(nil), order...),
	}
	useCount := make(map[[2]int]int)
	var served [][2]int
	for _, ti := range order {
		res, err := core.Solve(work, tasks[ti], opts)
		if err != nil {
			return nil, err
		}
		for _, inst := range res.Embedding.NewInstances {
			if err := work.Deploy(inst.VNF, inst.Node); err != nil {
				return nil, fmt.Errorf("forest: install: %w", err)
			}
		}
		// Track per-instance usage (deployed-or-new) for sharing stats.
		served = res.Embedding.AppendServed(served[:0])
		for _, key := range served {
			useCount[key]++
		}
		out.Trees[ti] = res
		out.TotalCost += res.FinalCost
	}
	for _, c := range useCount {
		if c > 1 {
			out.SharedInstances++
		}
	}
	return out, nil
}
