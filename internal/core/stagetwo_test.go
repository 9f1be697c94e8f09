package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sftree/internal/baseline"
	"sftree/internal/core"
	"sftree/internal/netgen"
)

type events []core.Event

func (l *events) OnEvent(e core.Event) { *l = append(*l, e) }

// TestStageTwoEndsOnAnEmptyPass: stage two repeats its pass until one
// accepts nothing (Alg. 3's "repeat ... until one VNF cannot be deployed
// on multiple nodes"), and every move it keeps lowers the global cost.
// RSA's random placements on the branch study's instance family (100
// nodes, clustered receivers, 1–4×|V| pre-deployments; its seeds at
// seed 1, 50 trials per density) are weak enough starts that some
// solves accept a move after pass 1, which keeps the check from being
// vacuous.
func TestStageTwoEndsOnAnEmptyPass(t *testing.T) {
	const nodes = 100
	late := 0
	for _, density := range []int{1, 2, 4} {
		for trial := 0; trial < 50; trial++ {
			rng := rand.New(rand.NewSource(1 + int64(density)*3571 + int64(trial)))
			gen := netgen.PaperConfig(nodes, 2)
			gen.DeployedInstances = density * nodes
			net, err := netgen.Generate(gen, rng)
			if err != nil {
				t.Fatal(err)
			}
			task, err := netgen.GenerateClusteredTask(net, rng, 3, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, aggressive := range []bool{false, true} {
				var log events
				opts := core.Options{AggressiveOPA: aggressive, Observer: &log}
				res, err := baseline.RSA(net, task, rand.New(rand.NewSource(97+int64(trial))), opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("density %d trial %d aggressive %v", density, trial, aggressive)
				if res.FinalCost > res.Stage1Cost {
					t.Errorf("%s: final cost %v above stage one %v", name, res.FinalCost, res.Stage1Cost)
				}
				var last core.Event
				for _, e := range log {
					switch e.Kind {
					case core.EventMoveAccepted:
						if !(e.CostAfter < e.CostBefore) {
							t.Errorf("%s: accepted move %+v does not lower the cost", name, e)
						}
						if e.Pass > 1 {
							late++
						}
					case core.EventOPAPassEnd:
						last = e
					}
				}
				if !res.EarlyStop && (last.Kind != core.EventOPAPassEnd || last.Moves != 0) {
					t.Errorf("%s: stage two ended on %+v, not on a pass that accepted nothing", name, last)
				}
			}
		}
	}
	t.Logf("%d moves accepted after pass 1", late)
	if late == 0 {
		t.Error("no solve accepted a move after pass 1: the check is vacuous")
	}
}
