package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"sftree/internal/graph"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// TestMetricMeetConcurrent: clones of one network share its metric,
// and with it the table behind graph.Metric.Meet that the tree bound
// reads. Four goroutines solve fresh tasks, each on its own clone,
// from a cold table, so its rows and cells are filled by several
// solvers at once (tools.sh runs this under -race at -cpu 1,2,4). Each
// solve must report the tree bound and costs of the same solve on a
// network of its own, whose table no one else touched, and afterwards
// every pair's Meet must be the row scan's bits.
func TestMetricMeetConcurrent(t *testing.T) {
	const solvers, perSolver = 4, 24
	shared := paperNetwork(t, 100)
	alone := paperNetwork(t, 100)
	tasks := make([]nfv.Task, solvers*perSolver)
	rng := rand.New(rand.NewSource(59))
	for i := range tasks {
		task, err := netgen.GenerateTask(shared, rng, 10+rng.Intn(11), 3)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = task
	}
	type outcome struct{ bound, stage1, final float64 }
	solveOn := func(net *nfv.Network, task nfv.Task) (outcome, error) {
		var o outcome
		res, err := Solve(net, task, Options{Observer: observerFunc(func(e Event) {
			if e.Kind == EventSweepEnd {
				o.bound = e.TreeBound
			}
		})})
		if err != nil {
			return o, err
		}
		o.stage1, o.final = res.Stage1Cost, res.FinalCost
		return o, nil
	}
	got := make([]outcome, len(tasks))
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := shared.Clone()
			for i := w; i < len(tasks); i += solvers {
				if got[i], errs[w] = solveOn(net, tasks[i]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, task := range tasks {
		want, err := solveOn(alone.Clone(), task)
		if err != nil {
			t.Fatal(err)
		}
		g := got[i]
		if math.Float64bits(g.bound) != math.Float64bits(want.bound) ||
			math.Float64bits(g.stage1) != math.Float64bits(want.stage1) ||
			math.Float64bits(g.final) != math.Float64bits(want.final) {
			t.Errorf("task %d: shared metric gave %+v, a metric of its own %+v", i, g, want)
		}
	}
	m := shared.Metric()
	for a := range m.Dist {
		for b := range m.Dist {
			if got, want := m.Meet(a, b), scanMeet(m, a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Meet(%d, %d) = %v, the row scan %v", a, b, got, want)
			}
		}
	}
}

// scanMeet is min over v of max(Dist[a][v], Dist[b][v]), read off the
// rows.
func scanMeet(m *graph.Metric, a, b int) float64 {
	best := graph.Inf
	for v, d := range m.Dist[a] {
		best = min(best, max(d, m.Dist[b][v]))
	}
	return best
}
