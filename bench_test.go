package sftree

import (
	"fmt"
	"testing"

	"sftree/internal/experiments"
)

// Benchmarks: one per paper figure plus one per ablation, each running
// its full sweep at a reduced trial count so `go test -bench=.` stays
// tractable. `cmd/sftbench` runs the same code at paper scale.

func benchFigure(b *testing.B, run func(experiments.Config) (*experiments.Figure, error), withRef bool) {
	b.Helper()
	cfg := experiments.Config{Trials: 1, Seed: 1, WithReference: withRef}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			// Surface the series so bench output documents the shape.
			fmt.Print(fig.CostTable())
			fmt.Print(fig.Summary())
			b.StartTimer()
		}
	}
}

func BenchmarkFig08NetworkSizeSparseDests(b *testing.B) { benchFigure(b, experiments.Fig8, false) }
func BenchmarkFig09NetworkSizeDenseDests(b *testing.B)  { benchFigure(b, experiments.Fig9, false) }
func BenchmarkFig10SetupCost1x(b *testing.B)            { benchFigure(b, experiments.Fig10, false) }
func BenchmarkFig11SetupCost3x(b *testing.B)            { benchFigure(b, experiments.Fig11, false) }
func BenchmarkFig12SFCLength(b *testing.B)              { benchFigure(b, experiments.Fig12, false) }
func BenchmarkFig13PalmettoDestinations(b *testing.B)   { benchFigure(b, experiments.Fig13, true) }
func BenchmarkFig14PalmettoSFCLength(b *testing.B)      { benchFigure(b, experiments.Fig14, true) }

func BenchmarkGapStudyProvenOptima(b *testing.B) { benchFigure(b, experiments.GapStudy, false) }
func BenchmarkTraceStudyDynamicLoad(b *testing.B) {
	benchFigure(b, experiments.TraceStudy, false)
}
func BenchmarkRatioStudyCapacity(b *testing.B) { benchFigure(b, experiments.RatioStudy, false) }
func BenchmarkBranchStudyWeakStarts(b *testing.B) {
	benchFigure(b, experiments.BranchStudy, false)
}

func BenchmarkAblationSteiner(b *testing.B) { benchFigure(b, experiments.AblationSteiner, false) }
func BenchmarkAblationOPAAcceptance(b *testing.B) {
	benchFigure(b, experiments.AblationOPA, false)
}

// Micro-benchmarks on the primary entry points, one fixed mid-size
// instance each, reporting per-solve cost.

func benchInstance(b *testing.B, nodes, dests, chain int) (*Network, Task) {
	b.Helper()
	net, err := GenerateNetwork(DefaultGenConfig(nodes, 2), 11)
	if err != nil {
		b.Fatal(err)
	}
	task, err := GenerateTask(net, 12, dests, chain)
	if err != nil {
		b.Fatal(err)
	}
	net.Metric() // exclude one-time APSP from the loop
	return net, task
}

func BenchmarkSolveTwoStage100(b *testing.B) {
	net, task := benchInstance(b, 100, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTwoStage(net, task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSCA100(b *testing.B) {
	net, task := benchInstance(b, 100, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSCA(net, task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveRSA100(b *testing.B) {
	net, task := benchInstance(b, 100, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveRSA(net, task, int64(i), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay100(b *testing.B) {
	net, task := benchInstance(b, 100, 10, 5)
	res, err := SolveTwoStage(net, task, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(net, res.Embedding); err != nil {
			b.Fatal(err)
		}
	}
}
