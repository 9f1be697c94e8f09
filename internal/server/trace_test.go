package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"sftree/internal/obs"
)

// getTraces pulls and decodes /debug/traces.
func getTraces(t *testing.T, base string) []obs.Trace {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Traces
}

// TestRequestIDPropagatesToTrace is the end-to-end acceptance path:
// the X-Request-ID a client sends on an admission must come back out
// of /debug/traces attached to the solver span tree that admission
// produced.
func TestRequestIDPropagatesToTrace(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	doc := testInstance(t)

	// Admission with a caller-chosen request ID.
	blob, err := json.Marshal(doc.Task)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "trace-e2e-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status %d", resp.StatusCode)
	}

	var admit *obs.Trace
	for _, tr := range getTraces(t, ts.URL) {
		if tr.Op == "admit" && tr.RequestID == "trace-e2e-42" {
			admit = &tr
			break
		}
	}
	if admit == nil {
		t.Fatal("no admit trace with the caller's request ID")
	}
	if len(admit.Spans) == 0 {
		t.Error("admit trace carries no solver spans")
	}
	if admit.DurationNs <= 0 {
		t.Error("admit trace has no duration")
	}
}

// TestStatelessSolveTraced: /v1/solve runs land in the ring too, with
// server-generated request IDs when the caller sent none.
func TestStatelessSolveTraced(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	doc := testInstance(t)
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: doc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	traces := getTraces(t, ts.URL)
	if len(traces) == 0 {
		t.Fatal("no traces after a solve")
	}
	tr := traces[len(traces)-1]
	if tr.Op != "solve" {
		t.Errorf("trace op = %q, want solve", tr.Op)
	}
	if tr.RequestID == "" {
		t.Error("solve trace lacks the generated request ID")
	}
	if tr.Session != -1 {
		t.Errorf("stateless solve trace session = %d, want -1", tr.Session)
	}
}

// TestMetricsExposesCacheFloats: the /metrics snapshot must carry the
// cache hit-rate and pool reuse callback gauges.
func TestMetricsExposesCacheFloats(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	doc := testInstance(t)
	if resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: doc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"metric_cache_hit_rate", "apsp_cache_hit_rate",
		"sp_pool_reuse_rate",
	} {
		if _, ok := snap.Floats[name]; !ok {
			t.Errorf("/metrics floats missing %s", name)
		}
	}
	// The solve above called Network.Metric at least once, so the
	// metric-cache counters must be live.
	if snap.Floats["metric_cache_hits"]+snap.Floats["metric_cache_misses"] <= 0 {
		t.Error("metric cache counters not live after a solve")
	}
}
