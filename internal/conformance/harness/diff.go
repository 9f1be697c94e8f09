package harness

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sftree/internal/baseline"
	"sftree/internal/conformance"
	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/exact"
	"sftree/internal/faults"
	"sftree/internal/ilp"
	"sftree/internal/nfv"
	"sftree/internal/sftilp"
	"sftree/internal/sim"
)

// RunConfig parameterizes one differential run. Everything is seeded:
// the same config reproduces the same corpus, solver calls, and fault
// schedules byte for byte.
type RunConfig struct {
	// N is the number of corpus cases (round-robin over Grid).
	N int
	// Seed drives corpus generation and every stochastic solver.
	Seed int64
	// Grid overrides DefaultGrid when non-empty.
	Grid []Stratum
	// MaxILPVars caps the model size handed to the dense ILP; larger
	// models fall back to BestKnown as the stratum reference. Zero
	// means 700.
	MaxILPVars int
	// MaxBFAssignments caps the brute-force search space. Zero means
	// 50000.
	MaxBFAssignments int
	// ILPTimeLimit bounds each branch-and-bound run. Zero means 20s.
	ILPTimeLimit time.Duration
	// Faulted additionally replays a seeded fault schedule against
	// each admitted case through the dynamic manager and validates
	// every repair through the shared validator.
	Faulted bool
	// FaultEvents is the faulted-variant schedule length (default 6).
	FaultEvents int
	// Progress, when non-nil, receives one call per finished case.
	Progress func(done, total int)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.N <= 0 {
		c.N = 40
	}
	if len(c.Grid) == 0 {
		c.Grid = DefaultGrid()
	}
	if c.MaxILPVars <= 0 {
		c.MaxILPVars = 700
	}
	if c.MaxILPVars > sftilp.MaxSolveVars {
		c.MaxILPVars = sftilp.MaxSolveVars
	}
	if c.MaxBFAssignments <= 0 {
		c.MaxBFAssignments = 50000
	}
	if c.ILPTimeLimit <= 0 {
		c.ILPTimeLimit = 20 * time.Second
	}
	if c.FaultEvents <= 0 {
		c.FaultEvents = 6
	}
	return c
}

// Violation is one failed cross-check. A clean run has none.
type Violation struct {
	Stratum string `json:"stratum"`
	Seed    int64  `json:"seed"`
	Solver  string `json:"solver"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed %d [%s/%s]: %s", v.Stratum, v.Seed, v.Solver, v.Kind, v.Detail)
}

// StratumReport aggregates one grid cell's outcomes.
type StratumReport struct {
	Stratum string `json:"stratum"`
	Cases   int    `json:"cases"`
	// ILPOptimal counts cases where branch and bound proved the true
	// optimum (directly, or by exhausting the search below the warm
	// incumbent, which certifies the heuristic cost as optimal).
	ILPOptimal int `json:"ilp_optimal"`
	// BruteForced counts cases the shortest-path-routed enumeration
	// reference covered.
	BruteForced int `json:"brute_forced"`
	// Reference names the ratio denominator: "ilp-optimal" when every
	// case in the stratum was proven, otherwise "best-known" (an upper
	// bound on the optimum, so ratios are conservative… from below).
	Reference string `json:"reference"`
	// MeanRatio / MaxRatio are the two-stage algorithm's approximation
	// ratios against the reference.
	MeanRatio float64 `json:"mean_ratio"`
	MaxRatio  float64 `json:"max_ratio"`

	ratioSum float64
	ratioN   int
}

// Report is a differential run's full outcome.
type Report struct {
	Cases  int `json:"cases"`
	Solves int `json:"solves"`
	// FaultedRuns / RepairChecks count the dynamic-repair variant:
	// schedules replayed and post-event session validations.
	FaultedRuns  int              `json:"faulted_runs,omitempty"`
	RepairChecks int              `json:"repair_checks,omitempty"`
	Violations   []Violation      `json:"violations,omitempty"`
	Strata       []*StratumReport `json:"strata"`
}

// solverRun is one solver's output on one case.
type solverRun struct {
	name string
	cost float64
	emb  *nfv.Embedding
	// monotone marks the two-stage family, whose outputs carry the
	// Theorem 4 stage-size structure by construction.
	monotone bool
}

// leq is the harness-wide tolerant a <= b.
func leq(a, b float64) bool {
	return a <= b+1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Run generates the corpus and differentially checks every case.
func Run(cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	cases, err := GenerateCorpus(cfg.Grid, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return RunCases(cfg, cases)
}

// RunCases differentially checks pre-built cases (e.g. a corpus loaded
// from disk) under cfg's budgets.
func RunCases(cfg RunConfig, cases []*Case) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{}
	strata := make(map[string]*StratumReport)
	for i, c := range cases {
		sr := strata[c.Stratum.Name()]
		if sr == nil {
			sr = &StratumReport{Stratum: c.Stratum.Name(), Reference: "ilp-optimal"}
			strata[c.Stratum.Name()] = sr
		}
		runCase(cfg, c, rep, sr)
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(cases))
		}
	}
	for _, sr := range strata {
		if sr.ratioN > 0 {
			sr.MeanRatio = sr.ratioSum / float64(sr.ratioN)
		}
		rep.Strata = append(rep.Strata, sr)
	}
	sort.Slice(rep.Strata, func(a, b int) bool { return rep.Strata[a].Stratum < rep.Strata[b].Stratum })
	rep.Cases = len(cases)
	return rep, nil
}

func runCase(cfg RunConfig, c *Case, rep *Report, sr *StratumReport) {
	net, task := c.Net, c.Task
	sr.Cases++
	fail := func(solver, kind, format string, a ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Stratum: c.Stratum.Name(), Seed: c.Seed, Solver: solver, Kind: kind,
			Detail: fmt.Sprintf(format, a...),
		})
	}

	// 1. The solver battery. Baselines may legitimately fail on
	// capacity-tight instances (their placements are restricted); the
	// two-stage solver must not — corpus cases are solvable by
	// construction.
	var runs []solverRun
	two, err := core.Solve(net, task, core.Options{})
	if err != nil {
		fail("msa", "solve-error", "two-stage solve failed on a corpus case: %v", err)
		return
	}
	runs = append(runs, solverRun{"msa", two.FinalCost, two.Embedding, true})
	if r, err := core.SolveStageOne(net, task, core.Options{}); err == nil {
		runs = append(runs, solverRun{"msa1", r.FinalCost, r.Embedding, true})
	} else {
		fail("msa1", "solve-error", "stage one failed where full solve succeeded: %v", err)
	}
	if r, err := core.Solve(net, task, core.Options{AggressiveOPA: true}); err == nil {
		runs = append(runs, solverRun{"msa-aggressive", r.FinalCost, r.Embedding, true})
		if !leq(r.FinalCost, two.FinalCost) {
			fail("msa-aggressive", "ordering", "aggressive OPA worsened cost: %v > %v", r.FinalCost, two.FinalCost)
		}
	}
	if r, err := baseline.SCA(net, task, core.Options{}); err == nil {
		runs = append(runs, solverRun{"sca", r.FinalCost, r.Embedding, true})
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	if r, err := baseline.RSA(net, task, rng, core.Options{}); err == nil {
		runs = append(runs, solverRun{"rsa", r.FinalCost, r.Embedding, true})
	}
	if r, err := baseline.OneNode(net, task, core.Options{}); err == nil {
		runs = append(runs, solverRun{"onenode", r.FinalCost, r.Embedding, true})
	}
	bks, err := exact.BestKnown(net, task)
	if err != nil {
		fail("bks", "solve-error", "best-known failed where two-stage succeeded: %v", err)
		return
	}
	runs = append(runs, solverRun{"bks", bks.FinalCost, bks.Embedding, true})
	if !leq(bks.FinalCost, two.FinalCost) {
		fail("bks", "ordering", "best-known %v above two-stage %v (it takes the min by construction)",
			bks.FinalCost, two.FinalCost)
	}

	// 2. Every embedding through the shared validator, every reported
	// cost re-derived by the independent re-accounting.
	for _, r := range runs {
		rep.Solves++
		if err := conformance.Check(net, r.emb); err != nil {
			fail(r.name, "invalid-embedding", "%v", err)
			continue
		}
		bd, err := conformance.Recount(net, r.emb)
		if err != nil {
			fail(r.name, "recount-error", "%v", err)
			continue
		}
		if !conformance.CostsAgree(bd.Total, r.cost) {
			fail(r.name, "cost-mismatch", "solver reports %v, independent recount %v", r.cost, bd.Total)
		}
		if r.monotone {
			if err := conformance.CheckStageMonotone(r.emb); err != nil {
				fail(r.name, "theorem4", "%v", err)
			}
		}
	}

	// 3. Exact references. The ILP is warm-started with the two-stage
	// cost; an exhausted search that never beat the incumbent comes
	// back Infeasible, which — the instance being feasible by
	// construction — certifies the incumbent as optimal.
	opt, haveOpt := math.Inf(1), false
	if model, err := sftilp.BuildModel(net, task); err == nil && model.NumVars() <= cfg.MaxILPVars {
		res, err := sftilp.SolveExact(net, task, ilp.Options{
			TimeLimit: cfg.ILPTimeLimit,
			Incumbent: two.FinalCost, HasIncumbent: true,
		})
		switch {
		case err != nil:
			fail("ilp", "solve-error", "%v", err)
		case res.Status == ilp.Optimal:
			opt, haveOpt = res.Objective, true
			if res.Embedding == nil {
				fail("ilp", "solve-error", "optimal status without an embedding")
			} else if err := conformance.Check(net, res.Embedding); err != nil {
				fail("ilp", "invalid-embedding", "%v", err)
			} else if bd, err := conformance.Recount(net, res.Embedding); err != nil || !conformance.CostsAgree(bd.Total, res.Objective) {
				fail("ilp", "cost-mismatch", "objective %v, recount %v (%v)", res.Objective, bd.Total, err)
			}
			rep.Solves++
		case res.Status == ilp.Infeasible:
			// Nothing below the warm incumbent: the heuristic is optimal.
			opt, haveOpt = two.FinalCost, true
		default:
			// Budget exhausted: only the dual bound is trustworthy.
			for _, r := range runs {
				if !leq(res.Bound, r.cost) {
					fail(r.name, "ordering", "ILP lower bound %v above %s cost %v", res.Bound, r.name, r.cost)
				}
			}
		}
		if haveOpt {
			sr.ILPOptimal++
			for _, r := range runs {
				if !leq(opt, r.cost) {
					fail(r.name, "ordering", "optimum %v above %s cost %v", opt, r.name, r.cost)
				}
			}
		}
	}

	// 4. Brute force: optimal over the shortest-path-routed class, so
	// an upper bound on the true optimum — and equal to it for a
	// single destination, where per-stage shortest paths lose nothing.
	space, servers, slots := 1.0, len(net.Servers()), task.K()*len(task.Destinations)
	for i := 0; i < slots && space <= float64(cfg.MaxBFAssignments); i++ {
		space *= float64(servers)
	}
	if space <= float64(cfg.MaxBFAssignments) {
		embBF, costBF, err := exact.BruteForce(net, task, cfg.MaxBFAssignments)
		if err != nil {
			fail("bf", "solve-error", "%v", err)
		} else {
			rep.Solves++
			sr.BruteForced++
			if err := conformance.Check(net, embBF); err != nil {
				fail("bf", "invalid-embedding", "%v", err)
			} else if bd, err := conformance.Recount(net, embBF); err != nil || !conformance.CostsAgree(bd.Total, costBF) {
				fail("bf", "cost-mismatch", "reported %v, recount %v (%v)", costBF, bd.Total, err)
			}
			if haveOpt && !leq(opt, costBF) {
				fail("bf", "ordering", "optimum %v above brute-force %v", opt, costBF)
			}
			if len(task.Destinations) == 1 {
				if haveOpt && !conformance.CostsAgree(costBF, opt) {
					fail("bf", "ordering", "single-destination brute force %v != optimum %v", costBF, opt)
				}
				for _, r := range runs {
					if !leq(costBF, r.cost) {
						fail(r.name, "ordering", "single-destination brute force %v above %s cost %v",
							costBF, r.name, r.cost)
					}
				}
			}
		}
	}

	// 5. The stratum's approximation ratio: two-stage over the proven
	// optimum where available, else over the best-known reference.
	ref := bks.FinalCost
	if haveOpt {
		ref = opt
	} else {
		sr.Reference = "best-known"
	}
	if ref > 0 {
		ratio := two.FinalCost / ref
		sr.ratioSum += ratio
		sr.ratioN++
		if ratio > sr.MaxRatio {
			sr.MaxRatio = ratio
		}
	}

	if cfg.Faulted {
		runFaulted(cfg, c, rep, fail)
	}
}

// faultKinds maps the script runner's per-op checks onto violation
// kinds.
var faultKinds = map[string]string{
	"live": "invalid-embedding", "refs": "invalid-embedding",
	"broken": "still-broken", "replay": "replay-error",
}

// runFaulted runs the script [admit the case's task, seeded faults…]
// on the case's network, which checks every surviving session after
// every op — the repair path of the differential contract. The faults
// are drawn on the network as the admission leaves it, so instance
// kills can hit the instances the session deployed.
func runFaulted(cfg RunConfig, c *Case, rep *Report, fail func(solver, kind, format string, a ...any)) {
	admitted := c.Net.Clone()
	if _, err := dynamic.NewManager(admitted, core.Options{}).Admit(c.Task); err != nil {
		fail("repair", "solve-error", "admission failed on a solvable case: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(c.Seed ^ 0xfa17))
	events, err := faults.Generate(admitted, faults.DefaultGenConfig(cfg.FaultEvents), rng)
	if err != nil {
		fail("repair", "schedule-error", "%v", err)
		return
	}
	task := c.Task
	script := &sim.Script{Nodes: c.Net.NumNodes(), Seed: c.Seed, Ops: []sim.Op{{Op: sim.OpAdmit, Task: &task}}}
	for i := range events {
		script.Ops = append(script.Ops, sim.Op{Op: sim.OpFault, Event: &events[i]})
	}
	out, err := script.Run(c.Net.Clone(), "")
	if err != nil {
		fail("repair", "replay-error", "%v", err)
		return
	}
	rep.FaultedRuns++
	rep.RepairChecks += out.Checks
	for _, f := range out.ValidationErrors {
		fail("repair", faultKinds[f.Check], "%v", f)
	}
}
