package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// solverFn runs one named algorithm variant on an instance.
type solverFn func(net *nfv.Network, task nfv.Task) (float64, error)

// runVariants sweeps network sizes and runs each named variant on the
// same instances, producing a Figure with one column per variant.
func runVariants(id, title string, sizes []int, numDestOf func(n int) int, chainLen int, variants map[string]solverFn, order []string, cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{ID: id, Title: title, XLabel: "|V|", AlgOrder: order}
	for _, n := range sizes {
		row := Row{X: float64(n), Algos: map[string]*Stat{}}
		for _, name := range order {
			row.Algos[name] = &Stat{}
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*101 + int64(trial)))
			net, err := netgen.Generate(netgen.PaperConfig(n, 2), rng)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			task, err := netgen.GenerateTask(net, rng, numDestOf(n), chainLen)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			net.Metric()
			for _, name := range order {
				start := time.Now()
				cost, err := variants[name](net, task)
				elapsed := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", id, name, err)
				}
				row.Algos[name].Cost.Add(cost)
				row.Algos[name].TimeMS.AddDuration(elapsed)
			}
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

func solveWith(opts core.Options) solverFn {
	return func(net *nfv.Network, task nfv.Task) (float64, error) {
		res, err := core.Solve(net, task, opts)
		if err != nil {
			return 0, err
		}
		return res.FinalCost, nil
	}
}

// AblationSteiner compares the stage-one Steiner routine: KMB (the
// paper's choice via [3]) against Takahashi-Matsuyama.
func AblationSteiner(cfg Config) (*Figure, error) {
	return runVariants("ablation-steiner", "Stage-one Steiner routine: KMB vs Takahashi-Matsuyama",
		[]int{50, 100, 150}, func(n int) int { return n / 5 }, 5,
		map[string]solverFn{
			"MSA-KMB": solveWith(core.Options{Steiner: core.SteinerKMB}),
			"MSA-TM":  solveWith(core.Options{Steiner: core.SteinerTM}),
		},
		[]string{"MSA-KMB", "MSA-TM"}, cfg)
}

// AblationOPA compares stage two (local rule proposes, recomputed
// global cost accepts) with no stage two at all.
func AblationOPA(cfg Config) (*Figure, error) {
	stageOne := func(net *nfv.Network, task nfv.Task) (float64, error) {
		res, err := core.SolveStageOne(net, task, core.Options{})
		if err != nil {
			return 0, err
		}
		return res.FinalCost, nil
	}
	return runVariants("ablation-opa", "Stage-two acceptance: global recompute vs none",
		[]int{50, 100, 150}, func(n int) int { return n / 5 }, 5,
		map[string]solverFn{
			"GlobalAccept": solveWith(core.Options{}),
			"StageOneOnly": stageOne,
		},
		[]string{"GlobalAccept", "StageOneOnly"}, cfg)
}

// AblationAPSP compares the all-pairs shortest-path backends feeding
// every algorithm: Floyd-Warshall (dense, the default) vs repeated
// Dijkstra (sparse-friendly). Cost column holds the (identical)
// distance-matrix checksum so divergence would be visible.
func AblationAPSP(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{
		ID:       "ablation-apsp",
		Title:    "APSP backend: Floyd-Warshall vs repeated Dijkstra",
		XLabel:   "|V|",
		AlgOrder: []string{"FloydWarshall", "AllDijkstra"},
	}
	for _, n := range []int{50, 100, 200} {
		row := Row{X: float64(n), Algos: map[string]*Stat{
			"FloydWarshall": {}, "AllDijkstra": {},
		}}
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n) + int64(trial)*17))
			net, err := netgen.Generate(netgen.PaperConfig(n, 2), rng)
			if err != nil {
				return nil, err
			}
			g := net.Graph()

			start := time.Now()
			fw := g.FloydWarshall()
			row.Algos["FloydWarshall"].TimeMS.AddDuration(time.Since(start))
			row.Algos["FloydWarshall"].Cost.Add(checksum(fw.Dist))

			start = time.Now()
			ad := g.AllDijkstra()
			row.Algos["AllDijkstra"].TimeMS.AddDuration(time.Since(start))
			row.Algos["AllDijkstra"].Cost.Add(checksum(ad.Dist))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

func checksum(dist [][]float64) float64 {
	var sum float64
	for _, row := range dist {
		for _, d := range row {
			sum += d
		}
	}
	return sum
}

// Ablations runs every ablation in order.
func Ablations(cfg Config) ([]*Figure, error) {
	runs := []func(Config) (*Figure, error){AblationSteiner, AblationOPA, AblationAPSP}
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
