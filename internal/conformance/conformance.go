// Package conformance is the repository's shared embedding-invariant
// validator and independent cost re-accountant. Every solver and every
// runtime path that holds an embedding — the HTTP server's validate
// endpoint, the dynamic manager's fault repair, the chaos simulation's
// post-event checks, and the differential harness in
// conformance/harness — validates through this one code path instead
// of keeping private copies of the constraint checks.
//
// The checks mirror the paper's feasibility constraints (1b)-(1f) and
// objective (1a), but the implementation is deliberately independent
// of nfv.Validate and nfv.Cost: it walks the embedding with its own
// bookkeeping, so agreement between the two is itself a conformance
// signal (asserted by the equivalence tests and the fuzz targets).
// On top of feasibility it exposes the structural property of the
// paper's Theorem 4 — instance counts per chain stage never shrink
// toward the destinations — which holds for every solution the
// two-stage optimizer family produces.
package conformance

import (
	"errors"
	"fmt"
	"math"

	"sftree/internal/nfv"
)

var (
	// ErrViolation reports an embedding that breaks a problem
	// constraint; the message pinpoints which one.
	ErrViolation = errors.New("conformance: invariant violated")
	// ErrMonotonicity reports a Theorem 4 stage-size violation: some
	// chain stage holds more distinct instances than a later one.
	ErrMonotonicity = errors.New("conformance: stage sizes not monotone")
)

// Breakdown is the independently re-derived traffic delivery cost.
type Breakdown struct {
	Setup float64 `json:"setup"` // distinct new instances, deduplicated by (vnf, node)
	Link  float64 `json:"link"`  // distinct (stage, directed edge) transmissions
	Total float64 `json:"total"`
}

// Check validates an embedding against every problem constraint:
//
//   - walk order: each destination's walk runs S -> l1 -> ... -> lk -> d
//     as k+1 segments with consistent endpoints, labelled levels, and
//     edge-connected paths (constraints 1c, 1e, 1f);
//   - service: the node ending segment j hosts chain VNF j+1, either
//     pre-deployed or listed in NewInstances (constraint 1b);
//   - instances: listed on server nodes only, no duplicates, none
//     shadowing a deployed instance;
//   - capacity: per-node demand of new instances fits the free
//     capacity (constraint 1d).
//
// It accepts exactly the embeddings nfv.Validate accepts (asserted by
// the equivalence tests) but shares no code with it.
func Check(net *nfv.Network, e *nfv.Embedding) error {
	_, err := checkAndRecount(net, e)
	return err
}

// Recount re-derives the embedding's traffic delivery cost (objective
// 1a) with the validator's own deduplication bookkeeping: the setup
// cost of every distinct new instance plus the link cost of every
// distinct (stage, directed edge) transmission, exactly the
// instance-reuse accounting of the paper (§IV-D: reused instances and
// re-traversed stage edges are free). It fails rather than pricing an
// infeasible embedding.
func Recount(net *nfv.Network, e *nfv.Embedding) (Breakdown, error) {
	return checkAndRecount(net, e)
}

// checkAndRecount is the single traversal behind Check and Recount.
func checkAndRecount(net *nfv.Network, e *nfv.Embedding) (Breakdown, error) {
	var bd Breakdown
	task := e.Task
	if err := task.Validate(net); err != nil {
		return bd, err
	}
	k := task.K()
	if len(e.Walks) != len(task.Destinations) {
		return bd, fmt.Errorf("%w: %d walks for %d destinations",
			ErrViolation, len(e.Walks), len(task.Destinations))
	}

	// New instances: structural checks, capacity accounting, setup cost.
	hasNew := make(map[[2]int]bool, len(e.NewInstances))
	addedDemand := make(map[int]float64)
	for _, inst := range e.NewInstances {
		vnf, err := net.VNF(inst.VNF)
		if err != nil {
			return bd, fmt.Errorf("%w: new instance %+v: %v", ErrViolation, inst, err)
		}
		if !net.IsServer(inst.Node) {
			return bd, fmt.Errorf("%w: new instance of VNF %d on non-server node %d",
				ErrViolation, inst.VNF, inst.Node)
		}
		if net.IsDeployed(inst.VNF, inst.Node) {
			return bd, fmt.Errorf("%w: new instance of VNF %d on node %d shadows a deployed one",
				ErrViolation, inst.VNF, inst.Node)
		}
		key := [2]int{inst.VNF, inst.Node}
		if hasNew[key] {
			return bd, fmt.Errorf("%w: duplicate new instance of VNF %d on node %d",
				ErrViolation, inst.VNF, inst.Node)
		}
		hasNew[key] = true
		addedDemand[inst.Node] += vnf.Demand
		bd.Setup += net.SetupCost(inst.VNF, inst.Node)
	}
	for v, add := range addedDemand {
		if net.UsedCapacity(v)+add > net.Capacity(v)+capEps {
			return bd, fmt.Errorf("%w: node %d over capacity: deployed %v + new %v > %v",
				ErrViolation, v, net.UsedCapacity(v), add, net.Capacity(v))
		}
	}

	// Walks: order, connectivity, service, per-stage link dedup.
	type stageArc struct{ level, u, v int }
	paid := make(map[stageArc]bool)
	for di, d := range task.Destinations {
		w := e.Walks[di]
		if len(w) != k+1 {
			return bd, fmt.Errorf("%w: destination %d walk has %d segments, want %d",
				ErrViolation, d, len(w), k+1)
		}
		at := task.Source
		for j, seg := range w {
			if seg.Level != j {
				return bd, fmt.Errorf("%w: destination %d segment %d labelled level %d",
					ErrViolation, d, j, seg.Level)
			}
			if len(seg.Path) == 0 {
				return bd, fmt.Errorf("%w: destination %d segment %d is empty", ErrViolation, d, j)
			}
			if seg.Path[0] != at {
				return bd, fmt.Errorf("%w: destination %d segment %d starts at %d, want %d",
					ErrViolation, d, j, seg.Path[0], at)
			}
			for i := 1; i < len(seg.Path); i++ {
				u, v := seg.Path[i-1], seg.Path[i]
				cost, ok := net.Graph().HasEdge(u, v)
				if !ok {
					return bd, fmt.Errorf("%w: destination %d segment %d hops over non-edge %d-%d",
						ErrViolation, d, j, u, v)
				}
				arc := stageArc{level: j, u: u, v: v}
				if !paid[arc] {
					paid[arc] = true
					bd.Link += cost
				}
				at = v
			}
			if j < k {
				f := task.Chain[j]
				if !net.IsDeployed(f, at) && !hasNew[[2]int{f, at}] {
					return bd, fmt.Errorf("%w: destination %d needs VNF %d at node %d (level %d) but no instance is there",
						ErrViolation, d, f, at, j+1)
				}
			}
		}
		if at != d {
			return bd, fmt.Errorf("%w: walk for destination %d terminates at %d", ErrViolation, d, at)
		}
	}
	bd.Total = bd.Setup + bd.Link
	return bd, nil
}

// capEps matches the capacity slack used across the repository.
const capEps = 1e-9

// CheckLive validates a *live* embedding: one whose NewInstances were
// installed on the network after solving (the dynamic manager's
// post-admission state). Check would reject such an embedding as
// shadowing deployed instances and double-count its capacity, so this
// variant re-checks against a scratch copy with the embedding's own
// instances undeployed. It is the re-validation path the fault
// recovery ladder and the chaos gate share.
func CheckLive(net *nfv.Network, e *nfv.Embedding) error {
	scratch := net
	for _, inst := range e.NewInstances {
		if inst.VNF < 0 || inst.VNF >= net.CatalogSize() {
			break // Check reports the malformed instance itself
		}
		if net.IsDeployed(inst.VNF, inst.Node) {
			if scratch == net {
				scratch = net.Clone()
			}
			if err := scratch.Undeploy(inst.VNF, inst.Node); err != nil {
				return fmt.Errorf("%w: undeploy %+v for re-validation: %v", ErrViolation, inst, err)
			}
		}
	}
	return Check(scratch, e)
}

// WalkBroken reports whether destination index di's walk traverses a
// link absent from the network or a serving node that no longer hosts
// its chain VNF — the damage test fault repair runs after a substrate
// change. Unlike Check it inspects deployment state only (a live walk
// leans on installed instances), so it applies to live embeddings.
func WalkBroken(net *nfv.Network, e *nfv.Embedding, di int) bool {
	k := e.Task.K()
	for j, seg := range e.Walks[di] {
		for i := 1; i < len(seg.Path); i++ {
			if _, ok := net.Graph().HasEdge(seg.Path[i-1], seg.Path[i]); !ok {
				return true
			}
		}
		if j < k {
			host := seg.Path[len(seg.Path)-1]
			if !net.IsDeployed(e.Task.Chain[j], host) {
				return true
			}
		}
	}
	return false
}

// StageCounts returns, for each chain level 1..k, the number of
// distinct nodes serving that level across all destinations — the
// per-stage instance-set sizes of the paper's Theorem 4.
func StageCounts(e *nfv.Embedding) []int {
	k := e.Task.K()
	counts := make([]int, k)
	for j := 1; j <= k; j++ {
		distinct := make(map[int]bool)
		for di := range e.Walks {
			if j < len(e.Walks[di]) && len(e.Walks[di][j].Path) > 0 {
				distinct[e.Walks[di][j].Path[0]] = true
			}
		}
		counts[j-1] = len(distinct)
	}
	return counts
}

// CheckStageMonotone asserts the Theorem 4 structure: the number of
// distinct serving nodes per chain stage is non-decreasing toward the
// destinations (later stages may hold more instances, never fewer).
// Every solution produced by the two-stage optimizer family (MSA+OPA
// and the baselines sharing OPA) satisfies it by construction — stage
// two only ever re-homes a complete group of destinations served by a
// common later-stage instance, so the per-stage partitions refine
// toward level k. Exact solvers may legally return optima that break
// it (the theorem says *an* optimal SFT with the structure exists, not
// that all do), so the differential harness asserts it only for the
// heuristic family and records it elsewhere.
func CheckStageMonotone(e *nfv.Embedding) error {
	counts := StageCounts(e)
	for j := 1; j < len(counts); j++ {
		if counts[j-1] > counts[j] {
			return fmt.Errorf("%w: stage %d holds %d instances, stage %d only %d",
				ErrMonotonicity, j, counts[j-1], j+1, counts[j])
		}
	}
	return nil
}

// CostsAgree reports whether two cost totals agree within the
// harness-wide tolerance (absolute for small values, relative for
// large ones). Infinities agree only with themselves.
func CostsAgree(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	tol := 1e-6 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol
}
