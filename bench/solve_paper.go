package main

import (
	"fmt"
	"time"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// solve_paper sizes. The pool is |D| in {5,10,20} x k in {3,5,7} taken
// cyclically, on the paper's largest evaluated |V|, so the
// 200-candidate sweep dominates as in the paper's Fig. 8-14.
const (
	solveNodes = 200
	solvePool  = 96
)

var solveShapes = []shape{
	{5, 3}, {10, 5}, {20, 7}, {5, 5}, {10, 7}, {20, 3}, {5, 7}, {10, 3}, {20, 5},
}

// solvePaper is offline library use: one goroutine calls core.Solve
// back to back on a warm network.
type solvePaper struct {
	doc   []byte
	net   *nfv.Network
	tasks []nfv.Task
	costs []float64
}

func (w *solvePaper) setup(rc *runCtx) error {
	var err error
	if w.doc, w.net, err = freshNetwork(rc, netgen.PaperConfig(solveNodes, 2)); err != nil {
		return err
	}
	rng := newRand(rc.seed)
	if w.tasks, err = genTasks(w.net, rng, solvePool, solveShapes); err != nil {
		return err
	}
	rc.planHash = planHash(w.tasks)
	// Warm-up: one pass fills the pools and fixes every task's cost.
	w.costs = make([]float64, len(w.tasks))
	for i, t := range w.tasks {
		res, err := core.Solve(w.net, t, core.Options{})
		if err != nil {
			return fmt.Errorf("warm-up solve %d: %w", i, err)
		}
		w.costs[i] = res.FinalCost
	}
	return nil
}

func (w *solvePaper) close() error { return nil }

func (w *solvePaper) measure(rc *runCtx) error {
	var lat timed
	var led ledger
	untracedUntil := rc.untracedPrefix()
	var latUntraced, latTraced []float64
	sl := rc.newSlices(rc.window)
	start := time.Now()
	solves := 0
	for {
		s, until, ok, err := sl.open()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ops := 0
		for time.Now().Before(until) {
			i := solves % len(w.tasks)
			t := w.tasks[i]
			solves++
			traced := rc.tr != nil && time.Now().After(untracedUntil)
			t0 := time.Now()
			res, err := core.Solve(w.net, t, core.Options{})
			t1 := time.Now()
			if err == nil {
				err = w.net.Validate(res.Embedding)
			}
			if !rc.count(err, fmt.Sprintf("solve task %d", i)) {
				continue
			}
			if res.FinalCost != w.costs[i] {
				rc.fail("solve task %d: cost %v differs from warm-up %v", i, res.FinalCost, w.costs[i])
			}
			d := msOf(t1.Sub(t0))
			lat.add(d, s)
			ops++
			if rc.tr != nil {
				if traced {
					latTraced = append(latTraced, d)
				} else {
					latUntraced = append(latUntraced, d)
				}
			}
			if traced && len(lat.v)%replayEvery == 0 {
				tid := rc.tr.newTrace()
				root := rc.tr.record(tid, 0, "core.solve_op", t0, t1)
				if _, err := led.replaySolve(rc.tr, tid, root, w.net, t); err != nil {
					rc.fail("%v", err)
				}
			}
		}
		if err := sl.close(ops); err != nil {
			return err
		}
	}
	if solves < len(w.tasks) {
		rc.fail("no full pass over the pool in %.1fs", time.Since(start).Seconds())
	}
	rc.report(sl, sl, &lat)
	rc.e2e["cost_mean"] = mean(w.costs)
	rc.ops = len(lat.v)
	if rc.tr != nil {
		led.put(rc.layer)
		rc.overhead(latUntraced, latTraced)
	}
	return nil
}

// coldStart is what a fresh process pays before its first answer:
// decode the instance, build the metric, solve once.
func (w *solvePaper) coldStart(rc *runCtx) (time.Duration, error) {
	t0 := time.Now()
	net, err := decodeNetwork(w.doc)
	if err != nil {
		return 0, err
	}
	if _, err := core.Solve(net, w.tasks[0], core.Options{}); err != nil {
		return 0, fmt.Errorf("cold solve: %w", err)
	}
	return time.Since(t0), nil
}

func (w *solvePaper) verify(rc *runCtx) error { return nil }
