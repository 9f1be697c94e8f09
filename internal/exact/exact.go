// Package exact provides two optimality references that stand in for
// the paper's CPLEX runs (see DESIGN.md, substitutions):
//
//   - BruteForce enumerates every per-destination host assignment with
//     canonical shortest-path routing on tiny instances, an independent
//     oracle used to cross-check the ILP path.
//   - BestKnown sweeps every candidate last-VNF host with the *exact*
//     SFC cost (MOD shortest path) and the *exact* Steiner tree cost
//     (one Dreyfus-Wagner table over the destinations, read at each
//     host), refines the winner with the shared stage-two optimizer,
//     and returns the cheapest of that and the two-stage heuristics.
//     It upper-bounds the optimum, so approximation ratios reported
//     against it are conservative.
package exact

import (
	"errors"
	"fmt"
	"math"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

var (
	// ErrTooLarge reports an instance beyond the brute-force budget.
	ErrTooLarge = errors.New("exact: instance too large for brute force")
)

// BruteForce enumerates every assignment of chain levels to servers,
// independently per destination, prices each with shortest-path
// routing and per-(stage,edge) deduplication, and returns the cheapest
// feasible embedding. The search space is |servers|^(k*|D|) and must
// not exceed maxAssignments.
func BruteForce(net *nfv.Network, task nfv.Task, maxAssignments int) (*nfv.Embedding, float64, error) {
	if err := task.Validate(net); err != nil {
		return nil, 0, err
	}
	if maxAssignments <= 0 {
		maxAssignments = 500000
	}
	servers := net.Servers()
	k := task.K()
	nd := len(task.Destinations)
	slots := k * nd
	space := 1.0
	for i := 0; i < slots; i++ {
		space *= float64(len(servers))
		if space > float64(maxAssignments) {
			return nil, 0, fmt.Errorf("%w: %d^%d assignments", ErrTooLarge, len(servers), slots)
		}
	}

	metric := net.Metric()
	assign := make([]int, slots) // index into servers, slot = d*k + (j-1)
	bestCost := graph.Inf
	var best *nfv.Embedding

	var recur func(slot int)
	recur = func(slot int) {
		if slot == slots {
			emb, ok := buildEmbedding(net, task, metric, assign, servers)
			if !ok {
				return
			}
			if err := net.Validate(emb); err != nil {
				return
			}
			if c := net.Cost(emb).Total; c < bestCost {
				bestCost = c
				best = emb
			}
			return
		}
		for si := range servers {
			assign[slot] = si
			recur(slot + 1)
		}
	}
	recur(0)
	if best == nil {
		return nil, 0, core.ErrNoFeasible
	}
	return best, bestCost, nil
}

// buildEmbedding materializes one brute-force assignment; it reports
// false when some required path does not exist or capacity is blown.
func buildEmbedding(net *nfv.Network, task nfv.Task, metric *graph.Metric, assign []int, servers []int) (*nfv.Embedding, bool) {
	k := task.K()
	e := &nfv.Embedding{Task: task.CloneTask()}
	seen := make(map[[2]int]bool)
	usage := make(map[int]float64)
	for d := range task.Destinations {
		prev := task.Source
		w := make(nfv.Walk, 0, k+1)
		for j := 1; j <= k; j++ {
			host := servers[assign[d*k+j-1]]
			f := task.Chain[j-1]
			key := [2]int{f, host}
			if !seen[key] && !net.IsDeployed(f, host) {
				seen[key] = true
				vnf, err := net.VNF(f)
				if err != nil {
					return nil, false
				}
				usage[host] += vnf.Demand
				if usage[host] > net.FreeCapacity(host)+1e-9 {
					return nil, false
				}
				e.NewInstances = append(e.NewInstances, nfv.Instance{VNF: f, Node: host, Level: j})
			}
			p := metric.Path(prev, host)
			if p == nil {
				return nil, false
			}
			w = append(w, nfv.Segment{Level: j - 1, Path: p})
			prev = host
		}
		p := metric.Path(prev, task.Destinations[d])
		if p == nil {
			return nil, false
		}
		w = append(w, nfv.Segment{Level: k, Path: p})
		e.Walks = append(e.Walks, w)
	}
	return e, true
}

// BestKnownResult is BestKnown's outcome.
type BestKnownResult struct {
	// Result is the winning solution.
	*core.Result
	// ExactSteiner reports whether the host sweep used exact
	// Dreyfus-Wagner Steiner costs (|D| within the DP limit) or fell
	// back to the KMB approximation.
	ExactSteiner bool
}

// BestKnown computes the repository's strongest reference solution,
// used where the paper plots CPLEX optima at PalmettoNet scale.
func BestKnown(net *nfv.Network, task nfv.Task) (*BestKnownResult, error) {
	if err := task.Validate(net); err != nil {
		return nil, err
	}
	best, err := core.Solve(net, task, core.Options{})
	if err != nil {
		return nil, err
	}
	if tm, err := core.Solve(net, task, core.Options{Steiner: core.SteinerTM}); err == nil && tm.FinalCost < best.FinalCost {
		best = tm
	}
	out := &BestKnownResult{Result: best}

	table, err := steiner.NewDWTable(net.Graph(), net.Metric(), task.Destinations)
	if err != nil {
		return out, nil // fall back to the heuristic reference
	}
	out.ExactSteiner = true

	overlay, err := mod.Build(net, task.Source, task.Chain)
	if err != nil {
		return nil, err
	}
	sol := overlay.SolveSFC()
	bestHost, bestTotal := -1, graph.Inf
	var bestHosts []int
	for _, w := range net.Servers() {
		if sol.CostTo(w) == graph.Inf {
			continue
		}
		hosts := sol.HostsTo(w)
		if hosts == nil {
			continue
		}
		hosts, ok := core.RepairChainHosts(net, task, hosts)
		if !ok {
			continue
		}
		last := hosts[len(hosts)-1]
		total := overlay.ChainCost(hosts) + table.Cost(last)
		if total < bestTotal {
			bestHost, bestTotal = last, total
			bestHosts = hosts
		}
	}
	if bestHost == -1 {
		return out, nil
	}
	tree, err := table.Tree(bestHost)
	if err != nil {
		return out, nil
	}
	tails, err := core.TailsFromEdges(net, bestHost, task.Destinations, tree.Edges)
	if err != nil {
		return out, nil
	}
	refined, err := core.OptimizeEmbedding(net, task, bestHosts, tails, core.Options{})
	if err != nil {
		return out, nil
	}
	if refined.FinalCost < best.FinalCost-1e-12 {
		out.Result = refined
	}
	if math.IsInf(out.FinalCost, 1) {
		return nil, core.ErrNoFeasible
	}
	return out, nil
}
