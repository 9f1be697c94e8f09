package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sftree/internal/obs"
)

func TestRunSmallTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nodes", "25", "-sessions", "15", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"workload:", "admitted", "per-session cost", "final state: 0 active sessions"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunPalmettoTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-palmetto", "-sessions", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10 sessions") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-sessions", "0"}, nil); err == nil {
		t.Error("zero sessions accepted")
	}
	if err := run([]string{"-nope"}, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-nodes", "20", "-sessions", "8", "-seed", "5"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different trace results")
	}
}

// TestSummarizeTraces serves a real TraceBuffer over HTTP and checks
// the consumer reads ops, warm ratio and request IDs back out.
func TestSummarizeTraces(t *testing.T) {
	buf := obs.NewTraceBuffer(8)
	buf.Record(obs.Trace{Op: "admit", RequestID: "req-9", Warm: true, Session: -1, DurationNs: 2e6,
		Spans: []*obs.Span{{Name: "stage1", DurationNs: 1500e3, Children: []*obs.Span{
			{Name: "overlay", DurationNs: 10e3},
			{Name: "sfc_dijkstra", DurationNs: 400e3, Attrs: map[string]float64{"rows_relaxed": 12, "rows_dominated": 7, "rows": 200}},
			{Name: "candidate_sweep", DurationNs: 1000e3, Attrs: map[string]float64{"candidates": 6, "general_trees": 1, "bound_skips": 4, "tree_bound": 12.5, "repeat_roots": 2}},
		}}}}, nil)
	buf.Record(obs.Trace{Op: "admit", Session: 1, DurationNs: 1e6, Speculative: true}, nil)
	buf.Record(obs.Trace{Op: "admit", Session: 2, DurationNs: 1e6, Speculative: true, Stale: true}, nil)
	buf.Record(obs.Trace{Op: "repair", Session: 3, DurationNs: 5e6}, nil)
	buf.Record(obs.Trace{Op: "solve", RequestID: "req-a", Err: "rejected", Session: -1, DurationNs: 1e6}, nil)
	ts := httptest.NewServer(http.StripPrefix("/debug/traces", buf.Handler()))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-traces", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"5 held (capacity 8, 5 added, 0 evicted)",
		"op admit",
		"op repair",
		"warm-metric solves 1/5",
		"request-ID stamped 2/5",
		"failures 1",
		"solved ahead of their turn 2/3 admissions, 1 stale and solved again",
		"stage one 1.5ms: overlay 10µs, sfc search 400µs (12 of 200 predecessor rows, 7 dominated), candidate sweep 1ms (1 general-branch KMB trees, 4 candidates skipped by the bound, last-stage tree bound 12.5 on average, 2 repeated roots)",
		"slowest: op=repair dur=5ms warm=false speculative=false stale=false",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}
