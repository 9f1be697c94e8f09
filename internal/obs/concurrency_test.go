package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sftree/internal/core"
)

// TestConcurrentObserverFanout hammers the shared metrics bridge and a
// shared trace ring from many concurrent solves (run under -race in
// the obs gate). Every solve tees the one registry-backed observer
// with its own SpanRecorder; afterwards the registry totals must equal
// the sum of the per-solve recordings exactly — any span loss or
// double-count in the fan-out shows up as a mismatch.
func TestConcurrentObserverFanout(t *testing.T) {
	net, task := obsInstance(t)
	// The lazy metric cache is not goroutine-safe; warm it before
	// sharing the network across solvers (see Network.Metric docs).
	net.Metric()

	reg := NewRegistry()
	bridge := NewMetricsObserver(reg)
	ring := NewTraceBuffer(0)

	const solves = 24
	recs := make([]*SpanRecorder, solves)
	var wg sync.WaitGroup
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, finish := ring.StartTrace(Trace{Op: "solve", RequestID: fmt.Sprintf("req-%d", i), Session: -1})
			res, err := core.Solve(net, task, core.Options{Observer: Tee(bridge, rec)})
			recs[i] = &SpanRecorder{events: rec.Events()} // finish releases rec
			finish(res, err)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	snap := reg.Snapshot()
	for _, h := range []string{"solver_apsp_ms", "solver_stage1_ms", "solver_stage2_ms"} {
		if got := snap.Histograms[h].Count; got != solves {
			t.Errorf("%s count = %d, want %d", h, got, solves)
		}
	}
	proposed := snap.Counters["solver_moves_proposed_total"]
	accepted := snap.Counters["solver_moves_accepted_total"]
	rejected := snap.Counters["solver_moves_rejected_total"]
	if proposed != accepted+rejected {
		t.Errorf("move funnel leaks: proposed %d != accepted %d + rejected %d",
			proposed, accepted, rejected)
	}

	// The bridge's totals must be exactly the sum of what each
	// solve's private recorder saw: nothing lost, nothing counted
	// twice across the Tee.
	var sumProposed, sumAccepted, sumRejected, sumPasses int64
	for i, rec := range recs {
		spans := rec.Spans()
		sumProposed += int64(len(named(spans, "move_proposed")))
		sumAccepted += int64(len(named(spans, "move_accepted")))
		sumRejected += int64(len(named(spans, "move_rejected")))
		walk(spans, func(s *Span) {
			if strings.HasPrefix(s.Name, "opa_pass_") {
				sumPasses++
			}
		})
		ends := 0
		for _, e := range rec.Events() {
			if e.Kind == core.EventStage2End {
				ends++
			}
		}
		if ends != 1 {
			t.Errorf("recorder %d saw %d stage2_end events, want 1", i, ends)
		}
	}
	if sumProposed != proposed || sumAccepted != accepted || sumRejected != rejected {
		t.Errorf("per-solve sums (%d/%d/%d) != bridge counters (%d/%d/%d)",
			sumProposed, sumAccepted, sumRejected, proposed, accepted, rejected)
	}
	if got := snap.Counters["solver_opa_passes_total"]; got != sumPasses {
		t.Errorf("solver_opa_passes_total = %d, want %d", got, sumPasses)
	}

	// Every solve's trace landed in the ring, each stamped and
	// carrying its span tree.
	added, dropped := ring.Stats()
	if added != solves || dropped != 0 {
		t.Errorf("trace ring added=%d dropped=%d, want %d/0", added, dropped, solves)
	}
	ids := make(map[string]bool)
	for _, tr := range ring.Snapshot() {
		if tr.RequestID == "" || len(tr.Spans) == 0 {
			t.Errorf("trace missing request ID or spans: %+v", tr)
		}
		if ids[tr.RequestID] {
			t.Errorf("request ID %s recorded twice", tr.RequestID)
		}
		ids[tr.RequestID] = true
	}
}
