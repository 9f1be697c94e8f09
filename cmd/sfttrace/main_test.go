package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestParseJSONL feeds a mixed stream: PR 2-era lines (no request_id /
// warm / rung fields) and current scoped lines. Both must parse; the
// summary must surface the new attributes without choking on the old.
func TestParseJSONL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	lines := []string{
		// Old-schema lines: field set as emitted before the scoped stream.
		`{"kind":"apsp_build","duration_ns":1200000}`,
		`{"kind":"stage1_end","cost":42.5,"candidates":6,"duration_ns":800000}`,
		`{"kind":"stage2_end","cost":40.1,"moves":3,"duration_ns":500000}`,
		// Current-schema lines with the request/warm/rung additions.
		`{"kind":"apsp_build","warm":true,"request_id":"req-1"}`,
		`{"kind":"stage2_end","cost":39.0,"request_id":"req-1","duration_ns":300000}`,
		`{"kind":"stage2_end","cost":44.0,"request_id":"req-2","rung":"patch"}`,
		// Stage-one sub-phase lines, one overlay from the scaffold cache.
		`{"kind":"overlay_built","duration_ns":20000}`,
		`{"kind":"overlay_built","duration_ns":1000,"scaffold":true}`,
		`{"kind":"sfc_solved","duration_ns":300000}`,                                     // written before the row counts
		`{"kind":"sfc_solved","duration_ns":40000,"sfc_rows_relaxed":48,"sfc_rows":800}`, // written before the dominated count
		`{"kind":"sfc_solved","duration_ns":10000,"sfc_rows_relaxed":20,"sfc_rows_dominated":15,"sfc_rows":200}`,
		`{"kind":"sweep_end","candidates":6,"duration_ns":450000,"general_trees":2,"bound_skips":3,"repeat_roots":1}`,
		// Garbage must be skipped, not fatal.
		`not json`,
		``,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-parse", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"12 events",
		"1 unparseable lines skipped",
		"solves: 3 (1 warm metric, 1 cold)",
		"stage one 800µs: overlay 21µs (1/2 via scaffold cache), sfc search 350µs (68 of 1000 predecessor rows, 15 dominated), candidate sweep 450µs (2 general-branch KMB trees, 3 candidates skipped by the bound, 1 repeated roots)",
		"2 distinct request IDs",
		"repair rung patch: 1 events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestParseJSONLEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-parse", path}, io.Discard); err == nil {
		t.Error("stream with no parseable events accepted")
	}
}

// TestSummarizeTraces serves a real TraceBuffer over HTTP and checks
// the consumer reads ops, rungs, warm ratio and request IDs back out.
func TestSummarizeTraces(t *testing.T) {
	buf := obs.NewTraceBuffer(8)
	buf.Record(obs.Trace{Op: "admit", RequestID: "req-9", Warm: true, Session: -1, DurationNs: 2e6,
		Spans: []*obs.Span{{Name: "stage1", DurationNs: 1500e3, Children: []*obs.Span{
			{Name: "overlay", DurationNs: 10e3},
			{Name: "sfc_dijkstra", DurationNs: 400e3, Attrs: map[string]float64{"rows_relaxed": 12, "rows_dominated": 7, "rows": 200}},
			{Name: "candidate_sweep", DurationNs: 1000e3, Attrs: map[string]float64{"candidates": 6, "general_trees": 1, "bound_skips": 4, "repeat_roots": 2}},
		}}}}, nil)
	buf.Record(obs.Trace{Op: "admit", Session: 1, DurationNs: 1e6, Speculative: true}, nil)
	buf.Record(obs.Trace{Op: "admit", Session: 2, DurationNs: 1e6, Speculative: true, Stale: true}, nil)
	buf.Record(obs.Trace{Op: "repair", Rung: "patch", Session: 3, DurationNs: 5e6}, nil)
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
		"repair rung patch",
		"warm-metric solves 1/5",
		"request-ID stamped 2/5",
		"failures 1",
		"solved ahead of their turn 2/3 admissions, 1 stale and solved again",
		"stage one 1.5ms: overlay 10µs, sfc search 400µs (12 of 200 predecessor rows, 7 dominated), candidate sweep 1ms (1 general-branch KMB trees, 4 candidates skipped by the bound, 2 repeated roots)",
		"slowest: op=repair dur=5ms warm=false speculative=false stale=false",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
}
