// Package experiments defines and runs the paper's evaluation (§V):
// one experiment per figure, each a sweep over an x-axis parameter
// with several seeded trials per point, measuring the traffic delivery
// cost and running time of MSA (the two-stage algorithm), the SCA and
// RSA baselines, and — on the PalmettoNet figures — the best-known
// optimality reference that stands in for the paper's CPLEX runs.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/exact"
	"sftree/internal/metrics"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/topology"
)

// Algorithm names used as stable keys in rows and tables.
const (
	AlgoMSA = "MSA"
	AlgoSCA = "SCA"
	AlgoRSA = "RSA"
	AlgoOPT = "OPT*" // best-known reference (see DESIGN.md substitutions)
)

// Config tunes a run without changing the experiment's shape.
type Config struct {
	// Trials per point (default 5).
	Trials int
	// Seed drives all randomness (default 1).
	Seed int64
	// WithReference enables the OPT* reference on figures that have it
	// (13, 14). It is expensive; benches usually disable it.
	WithReference bool
	// Parallel runs up to this many trials concurrently per point
	// (default 1). Results are deterministic regardless: every trial
	// derives its own seeded generator, and aggregation happens in
	// trial order after all workers finish. Wall-clock timings of
	// individual algorithms become noisier under parallelism, so the
	// paper-style timing figures should keep Parallel at 1.
	Parallel int
}

func (c Config) normalized() Config {
	if c.Trials <= 0 {
		c.Trials = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	return c
}

// Stat aggregates one algorithm's measurements at one point.
type Stat struct {
	Cost   metrics.Sample
	TimeMS metrics.Sample
}

// Row is one x-axis point of a figure.
type Row struct {
	X     float64          // x-axis value
	Algos map[string]*Stat // per-algorithm aggregates
}

// Figure is a completed experiment.
type Figure struct {
	ID       string
	Title    string
	XLabel   string
	AlgOrder []string
	Rows     []Row
}

// point describes one sweep point of a figure.
type point struct {
	x        float64
	palmetto bool
	nodes    int
	numDest  int
	chainLen int
	mu       float64
	withOPT  bool
}

// measurement is one algorithm's outcome in one trial.
type measurement struct {
	cost float64
	dur  time.Duration
}

// runTrial executes every algorithm on one freshly generated instance.
func runTrial(pt point, cfg Config, trial int) (map[string]measurement, error) {
	// One deterministic stream per (seed, point, trial).
	rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*1_000_003 + int64(pt.x*7919) + int64(pt.nodes)))
	var (
		net *nfv.Network
		err error
	)
	if pt.palmetto {
		g, coords, _ := topology.Palmetto()
		net, err = netgen.Materialize(g, coords, netgen.PaperConfig(g.NumNodes(), pt.mu), rng)
	} else {
		net, err = netgen.Generate(netgen.PaperConfig(pt.nodes, pt.mu), rng)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: generate: %w", err)
	}
	task, err := netgen.GenerateTask(net, rng, pt.numDest, pt.chainLen)
	if err != nil {
		return nil, fmt.Errorf("experiments: task: %w", err)
	}
	net.Metric() // warm the APSP cache so timings compare algorithms, not the metric build

	out := make(map[string]measurement, 4)

	start := time.Now()
	msa, err := core.Solve(net, task, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: MSA: %w", err)
	}
	out[AlgoMSA] = measurement{cost: msa.FinalCost, dur: time.Since(start)}

	start = time.Now()
	sca, err := baseline.SCA(net, task, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: SCA: %w", err)
	}
	out[AlgoSCA] = measurement{cost: sca.FinalCost, dur: time.Since(start)}

	rsaRng := rand.New(rand.NewSource(cfg.Seed*31 + int64(trial)))
	start = time.Now()
	rsa, err := baseline.RSA(net, task, rsaRng, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: RSA: %w", err)
	}
	out[AlgoRSA] = measurement{cost: rsa.FinalCost, dur: time.Since(start)}

	if pt.withOPT {
		start = time.Now()
		opt, err := exact.BestKnown(net, task)
		if err != nil {
			return nil, fmt.Errorf("experiments: OPT*: %w", err)
		}
		out[AlgoOPT] = measurement{cost: opt.FinalCost, dur: time.Since(start)}
	}
	return out, nil
}

// runPoint executes all trials of one point, optionally in parallel,
// and aggregates measurements in trial order so statistics stay
// bit-for-bit deterministic.
func runPoint(pt point, cfg Config) (Row, error) {
	row := Row{X: pt.x, Algos: map[string]*Stat{
		AlgoMSA: {}, AlgoSCA: {}, AlgoRSA: {},
	}}
	if pt.withOPT {
		row.Algos[AlgoOPT] = &Stat{}
	}

	results := make([]map[string]measurement, cfg.Trials)
	errs := make([]error, cfg.Trials)
	if cfg.Parallel <= 1 {
		for trial := 0; trial < cfg.Trials; trial++ {
			results[trial], errs[trial] = runTrial(pt, cfg, trial)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, cfg.Parallel)
		for trial := 0; trial < cfg.Trials; trial++ {
			wg.Add(1)
			go func(trial int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[trial], errs[trial] = runTrial(pt, cfg, trial)
			}(trial)
		}
		wg.Wait()
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		if errs[trial] != nil {
			return row, errs[trial]
		}
		for algo, m := range results[trial] {
			row.Algos[algo].Cost.Add(m.cost)
			row.Algos[algo].TimeMS.AddDuration(m.dur)
		}
	}
	return row, nil
}

func runFigure(id, title, xlabel string, pts []point, cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{
		ID:       id,
		Title:    title,
		XLabel:   xlabel,
		AlgOrder: []string{AlgoMSA, AlgoSCA, AlgoRSA},
	}
	if len(pts) > 0 && pts[0].withOPT {
		fig.AlgOrder = append(fig.AlgOrder, AlgoOPT)
	}
	for _, pt := range pts {
		row, err := runPoint(pt, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s (x=%v): %w", id, pt.x, err)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// networkSizes is the paper's x-axis for Figs. 8-11.
var networkSizes = []int{50, 100, 150, 200, 250}

// chainLengths is the paper's x-axis for Figs. 12 and 14.
var chainLengths = []int{5, 10, 15, 20, 25}

// Fig8 sweeps network size with destination ratio |D|/|V| = 0.1
// (SFC length 5, mu = 2).
func Fig8(cfg Config) (*Figure, error) {
	var pts []point
	for _, n := range networkSizes {
		pts = append(pts, point{x: float64(n), nodes: n, numDest: n / 10, chainLen: 5, mu: 2})
	}
	return runFigure("fig8", "Cost & time vs network size, |D|/|V|=0.1", "|V|", pts, cfg)
}

// Fig9 sweeps network size with destination ratio 0.3.
func Fig9(cfg Config) (*Figure, error) {
	var pts []point
	for _, n := range networkSizes {
		pts = append(pts, point{x: float64(n), nodes: n, numDest: 3 * n / 10, chainLen: 5, mu: 2})
	}
	return runFigure("fig9", "Cost & time vs network size, |D|/|V|=0.3", "|V|", pts, cfg)
}

// Fig10 sweeps network size with average setup cost 1x the average
// shortest-path cost (|D|/|V| = 0.2, SFC length 5).
func Fig10(cfg Config) (*Figure, error) {
	var pts []point
	for _, n := range networkSizes {
		pts = append(pts, point{x: float64(n), nodes: n, numDest: n / 5, chainLen: 5, mu: 1})
	}
	return runFigure("fig10", "Cost & time vs network size, setup cost 1x lbar", "|V|", pts, cfg)
}

// Fig11 repeats Fig10 with setup cost 3x the average shortest path.
func Fig11(cfg Config) (*Figure, error) {
	var pts []point
	for _, n := range networkSizes {
		pts = append(pts, point{x: float64(n), nodes: n, numDest: n / 5, chainLen: 5, mu: 3})
	}
	return runFigure("fig11", "Cost & time vs network size, setup cost 3x lbar", "|V|", pts, cfg)
}

// Fig12 sweeps SFC length on |V|=200, |D|/|V|=0.2, mu=3.
func Fig12(cfg Config) (*Figure, error) {
	var pts []point
	for _, k := range chainLengths {
		pts = append(pts, point{x: float64(k), nodes: 200, numDest: 40, chainLen: k, mu: 3})
	}
	return runFigure("fig12", "Cost & time vs SFC length, |V|=200", "SFC length", pts, cfg)
}

// Fig13 sweeps the number of destinations on PalmettoNet (k=10, mu=2),
// optionally with the best-known optimality reference.
func Fig13(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	var pts []point
	for _, d := range []int{5, 10, 15, 20, 25} {
		pts = append(pts, point{x: float64(d), palmetto: true, numDest: d, chainLen: 10, mu: 2, withOPT: cfg.WithReference})
	}
	return runFigure("fig13", "PalmettoNet: cost & time vs |D| (k=10)", "|D|", pts, cfg)
}

// Fig14 sweeps SFC length on PalmettoNet (|D|=15, mu=2).
func Fig14(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	var pts []point
	for _, k := range chainLengths {
		pts = append(pts, point{x: float64(k), palmetto: true, numDest: 15, chainLen: k, mu: 2, withOPT: cfg.WithReference})
	}
	return runFigure("fig14", "PalmettoNet: cost & time vs SFC length (|D|=15)", "SFC length", pts, cfg)
}

// All runs every figure in order.
func All(cfg Config) ([]*Figure, error) {
	runs := []func(Config) (*Figure, error){Fig8, Fig9, Fig10, Fig11, Fig12, Fig13, Fig14}
	out := make([]*Figure, 0, len(runs))
	for _, run := range runs {
		fig, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// ByID resolves a figure runner by its short identifier ("8".."14" or
// "fig8".."fig14").
func ByID(id string) (func(Config) (*Figure, error), bool) {
	switch id {
	case "8", "fig8":
		return Fig8, true
	case "9", "fig9":
		return Fig9, true
	case "10", "fig10":
		return Fig10, true
	case "11", "fig11":
		return Fig11, true
	case "12", "fig12":
		return Fig12, true
	case "13", "fig13":
		return Fig13, true
	case "14", "fig14":
		return Fig14, true
	case "gap", "gapstudy":
		return GapStudy, true
	case "trace", "tracestudy":
		return TraceStudy, true
	case "ratio", "ratiostudy":
		return RatioStudy, true
	case "branch", "branchstudy":
		return BranchStudy, true
	default:
		return nil, false
	}
}
