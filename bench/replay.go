package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// replayEvery is the sampling stride of layer replay in traced runs.
const replayEvery = 8

// ledger collects the per-call timings layer replay takes. Layers that
// run inside one exported call (Solve inside AdmitCtx, the overlay and
// the Steiner trees inside Solve) cannot be timed from outside while
// that call runs, so the traced run calls them again on a snapshot of
// the state the real call saw, in the solver's own order, and records
// them as children of the real call's span.
type ledger struct {
	mu                          sync.Mutex // callers replay from several goroutines
	buildUs, sfcUs, kmbUs       []float64
	stage1Ms, solveMs, stage2Ms []float64
	sweepSelfMs, kmbShare       []float64
	validateUs, cloneUs         []float64
	dijkstraUs                  []float64
	arcs, candidates            []float64
	allocs, kb                  []float64
}

// replaySolve re-runs the solver's layers for task on net, which must
// be at rest and have a warm metric, and records the spans under
// parent. It returns the replayed Solve's duration.
func (l *ledger) replaySolve(tr *tracer, trace, parent int, net *nfv.Network, task nfv.Task) (time.Duration, error) {
	t0 := time.Now()
	overlay, err := mod.Build(net, task.Source, task.Chain)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("replay mod.Build: %w", err)
	}
	sol := overlay.SolveSFC()
	t2 := time.Now()

	metric, g := net.Metric(), net.Graph()
	type call struct{ start, end time.Time }
	var kmb []call
	var kmbTotal time.Duration
	for _, w := range net.ServerList() {
		if sol.CostTo(w) == graph.Inf {
			continue
		}
		terminals := append([]int{w}, task.Destinations...)
		s := time.Now()
		_, err := steiner.KMB(g, metric, terminals)
		e := time.Now()
		if err != nil {
			continue // destination unreachable from w: the solver skips it too
		}
		kmb = append(kmb, call{s, e})
		kmbTotal += e.Sub(s)
	}

	// One observed Solve gives the stage split from inside the call:
	// timing SolveStageOne and Solve separately and subtracting is
	// noisier than the difference it is after.
	var stages stageTimes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t5 := time.Now()
	res, err := core.Solve(net, task, core.Options{Observer: &stages})
	t6 := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("replay core.Solve: %w", err)
	}
	err = net.Validate(res.Embedding)
	t7 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("replay validate: %w", err)
	}
	g.Dijkstra(task.Source)
	t8 := time.Now()

	solve, stage1, stage2 := t6.Sub(t5), stages.stage1, stages.stage2
	l.mu.Lock()
	l.dijkstraUs = append(l.dijkstraUs, usOf(t8.Sub(t7)))
	l.buildUs = append(l.buildUs, usOf(t1.Sub(t0)))
	l.sfcUs = append(l.sfcUs, usOf(t2.Sub(t1)))
	for _, c := range kmb {
		l.kmbUs = append(l.kmbUs, usOf(c.end.Sub(c.start)))
	}
	l.stage1Ms = append(l.stage1Ms, msOf(stage1))
	l.solveMs = append(l.solveMs, msOf(solve))
	l.stage2Ms = append(l.stage2Ms, msOf(stage2))
	l.sweepSelfMs = append(l.sweepSelfMs, msOf(stage1-t1.Sub(t0)-t2.Sub(t1)-kmbTotal))
	l.kmbShare = append(l.kmbShare, float64(kmbTotal)/float64(solve))
	l.validateUs = append(l.validateUs, usOf(t7.Sub(t6)))
	l.arcs = append(l.arcs, float64(overlay.NumOverlayArcs()))
	l.candidates = append(l.candidates, float64(res.CandidatesTried))
	l.allocs = append(l.allocs, float64(after.Mallocs-before.Mallocs))
	l.kb = append(l.kb, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	l.mu.Unlock()

	// Replayed calls ran one after another, so the spans carry their
	// own clock readings; parentage says which call they stand inside.
	solveID := tr.record(trace, parent, "core.solve", t5, t6)
	stage1ID := tr.record(trace, solveID, "core.stage1", t5, t5.Add(stage1))
	tr.record(trace, solveID, "core.stage2", t6.Add(-stage2), t6)
	tr.record(trace, stage1ID, "mod.build", t0, t1)
	tr.record(trace, stage1ID, "mod.solve_sfc", t1, t2)
	for _, c := range kmb {
		tr.record(trace, stage1ID, "steiner.kmb", c.start, c.end)
	}
	return solve, nil
}

// stageTimes reads the solver's own stage durations off its events.
type stageTimes struct{ stage1, stage2 time.Duration }

func (s *stageTimes) OnEvent(e core.Event) {
	switch e.Kind {
	case core.EventStage1End:
		s.stage1 = e.Duration
	case core.EventStage2End:
		s.stage2 = e.Duration
	}
}

// addClone records one timed snapshot of the managed network.
func (l *ledger) addClone(d time.Duration) {
	l.mu.Lock()
	l.cloneUs = append(l.cloneUs, usOf(d))
	l.mu.Unlock()
}

// put writes the ledger's medians into the per-layer metric map.
func (l *ledger) put(m map[string]float64) {
	m["mod.build_us"] = median(l.buildUs)
	m["mod.solve_sfc_us"] = median(l.sfcUs)
	m["mod.overlay_arcs"] = median(l.arcs)
	m["steiner.kmb_us"] = median(l.kmbUs)
	m["steiner.kmb_share"] = median(l.kmbShare)
	m["core.solve_ms"] = median(l.solveMs)
	m["core.stage1_ms"] = median(l.stage1Ms)
	m["core.stage2_ms"] = median(l.stage2Ms)
	m["core.sweep_self_ms"] = median(l.sweepSelfMs)
	m["core.candidates_per_solve"] = mean(l.candidates)
	m["core.allocs_per_solve"] = median(l.allocs)
	m["core.kb_per_solve"] = median(l.kb)
	m["nfv.validate_us"] = median(l.validateUs)
	m["nfv.clone_us"] = median(l.cloneUs)
	m["graph.dijkstra_us"] = median(l.dijkstraUs)
}
