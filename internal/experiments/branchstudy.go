package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/netgen"
)

// Branch-study column names.
const (
	ColRSAStage1    = "RSA-Stage1"
	ColRSAPaperOPA  = "RSA+OPA"
	ColRSAAggro     = "RSA+AggroOPA"
	ColMSAReference = "MSA"
)

// BranchStudy characterizes when stage two's tree-branching actually
// fires. Finding (reproduced by this experiment): after MSA's full
// candidate-host sweep there is nothing left for OPA to improve on
// Table-I-style instances (MSA sits within ~1% of the best-known
// reference), so the branching phase earns its keep on *weak* starting
// points. The study therefore measures, on clustered-receiver
// instances with dense pre-deployments, the random baseline's
// stage-one cost and what (a) the paper's OPA and (b) this
// repository's aggressive OPA extension (dependent paths kept, global
// acceptance) recover from it, with MSA as the reference line. Both run
// stage two as a solve does: passes repeat until one accepts nothing.
func BranchStudy(cfg Config) (*Figure, error) {
	cfg = cfg.normalized()
	fig := &Figure{
		ID:       "branchstudy",
		Title:    "Stage-two recovery from weak starts (clustered receivers)",
		XLabel:   "deployed/|V|",
		AlgOrder: []string{ColRSAStage1, ColRSAPaperOPA, ColRSAAggro, ColMSAReference},
	}
	const nodes = 100
	for _, density := range []int{1, 2, 4} {
		row := Row{X: float64(density), Algos: map[string]*Stat{
			ColRSAStage1: {}, ColRSAPaperOPA: {}, ColRSAAggro: {}, ColMSAReference: {},
		}}
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(density)*3571 + int64(trial)))
			gen := netgen.PaperConfig(nodes, 2)
			gen.DeployedInstances = density * nodes
			net, err := netgen.Generate(gen, rng)
			if err != nil {
				return nil, fmt.Errorf("branchstudy: %w", err)
			}
			task, err := netgen.GenerateClusteredTask(net, rng, 3, 4, 5)
			if err != nil {
				return nil, fmt.Errorf("branchstudy: %w", err)
			}
			// Identical RSA randomness for both OPA variants.
			rsaSeed := cfg.Seed*97 + int64(trial)
			start := time.Now()
			paper, err := baseline.RSA(net, task, rand.New(rand.NewSource(rsaSeed)), core.Options{})
			if err != nil {
				return nil, fmt.Errorf("branchstudy: %w", err)
			}
			paperTime := time.Since(start)
			start = time.Now()
			aggro, err := baseline.RSA(net, task, rand.New(rand.NewSource(rsaSeed)),
				core.Options{AggressiveOPA: true})
			if err != nil {
				return nil, fmt.Errorf("branchstudy: %w", err)
			}
			aggroTime := time.Since(start)
			if aggro.Stage1Cost != paper.Stage1Cost {
				return nil, fmt.Errorf("branchstudy: RSA stage-one diverged across OPA variants")
			}
			msa, err := core.Solve(net, task, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("branchstudy: %w", err)
			}
			row.Algos[ColRSAStage1].Cost.Add(paper.Stage1Cost)
			row.Algos[ColRSAPaperOPA].Cost.Add(paper.FinalCost)
			row.Algos[ColRSAPaperOPA].TimeMS.AddDuration(paperTime)
			row.Algos[ColRSAAggro].Cost.Add(aggro.FinalCost)
			row.Algos[ColRSAAggro].TimeMS.AddDuration(aggroTime)
			row.Algos[ColMSAReference].Cost.Add(msa.FinalCost)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}
