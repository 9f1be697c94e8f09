package dynamic

import (
	"context"
	"testing"

	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

// TestAdmitTraceCarriesRequestID: an admission through a traced
// manager must land in the ring as an "admit" trace stamped with the
// context's request ID and carrying the solver span tree — the
// end-to-end propagation path /debug/traces exposes.
func TestAdmitTraceCarriesRequestID(t *testing.T) {
	base := repairNet(t, 2)
	ring := obs.NewTraceBuffer(8)
	m := NewManager(base, core.Options{}).Trace(ring)

	ctx := obs.WithRequestID(context.Background(), "req-e2e-1")
	if _, err := m.AdmitCtx(ctx, nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}}); err != nil {
		t.Fatal(err)
	}
	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Op != "admit" || tr.RequestID != "req-e2e-1" {
		t.Errorf("trace op=%q request_id=%q, want admit/req-e2e-1", tr.Op, tr.RequestID)
	}
	if len(tr.Spans) == 0 || tr.Err != "" {
		t.Errorf("trace spans=%d err=%q, want a span tree and no error", len(tr.Spans), tr.Err)
	}

	// A rejected admission still traces, with the error attached.
	if _, err := m.AdmitCtx(ctx, nfv.Task{Source: 0, Destinations: []int{2}, Chain: nfv.SFC{0}}); err == nil {
		t.Fatal("admission to isolated node accepted")
	}
	traces = ring.Snapshot()
	if len(traces) != 2 || traces[1].Err == "" {
		t.Fatalf("rejection not traced: %+v", traces)
	}
}

// TestRepairTracesCarryRung: a repair's patch solve records one trace,
// op "repair", stamped with the session it was repairing (request ID
// empty — repairs originate from Rebase, not a request).
func TestRepairTracesCarryRung(t *testing.T) {
	base := repairNet(t, 2)
	ring := obs.NewTraceBuffer(8)
	m := NewManager(base, core.Options{}).Trace(ring)

	sess, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3, 4}, Chain: nfv.SFC{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Cut 1-4: destination 4 re-routes over 0-4 — the patch rung.
	rep := rebaseAfter(t, m, base, faults.Event{Kind: faults.LinkDown, U: 1, V: 4})
	if rep.Patched != 1 {
		t.Fatalf("report %+v, want one patched session", rep)
	}

	var repairs []obs.Trace
	for _, tr := range ring.Snapshot() {
		if tr.Op == "repair" {
			repairs = append(repairs, tr)
		}
	}
	if len(repairs) != 1 || repairs[0].Session != int(sess.ID) {
		t.Fatalf("want one repair trace for session %d, got %+v", sess.ID, repairs)
	}
	if tr := repairs[0]; tr.RequestID != "" || len(tr.Spans) == 0 || tr.Err != "" {
		t.Errorf("repair trace %+v: want no request ID, spans and no error", tr)
	}
}

// TestUntracedManagerPaysNothing: without Trace, the admission path
// must not install any observer (the solver's nil-observer fast path).
func TestUntracedManagerPaysNothing(t *testing.T) {
	base := repairNet(t, 2)
	m := NewManager(base, core.Options{})
	if _, err := m.Admit(nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}); err != nil {
		t.Fatal(err)
	}
	if m.opts.Observer != nil {
		t.Error("untraced manager mutated its base options observer")
	}
}
