package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

func testInstance(t *testing.T) nfv.InstanceDoc {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	net, err := netgen.Generate(netgen.PaperConfig(20, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return nfv.InstanceDoc{Network: net, Task: task}
}

// sessionNetwork generates the 25-node network the session tests run
// on, and a feasible task on it.
func sessionNetwork(t *testing.T) (*nfv.Network, nfv.Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(10))
	net, err := netgen.Generate(netgen.PaperConfig(25, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return net, task
}

// newTestServer serves net (nil: the stateless endpoints only) under
// cfg on a test listener, both shut down when the test ends.
func newTestServer(t *testing.T, net *nfv.Network, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, net, core.Options{}, cfg)
}

// newTestServerOpts is newTestServer with explicit solver options.
func newTestServerOpts(t *testing.T, net *nfv.Network, opts core.Options, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewWith(net, opts, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	closeQueue(t, srv)
	return srv, ts
}

// closeQueue stops srv's admission solvers when the test ends, so no
// test leaves one goroutine per processor running behind it.
func closeQueue(t *testing.T, srv *Server) {
	t.Cleanup(func() {
		if q := srv.Queue(); q != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = q.Close(ctx)
		}
	})
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSolveEndpointAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	doc := testInstance(t)
	for _, algo := range []string{"", "msa", "msa1"} {
		t.Run("algo="+algo, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: doc, Algorithm: algo})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			var out SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Embedding == nil || out.Cost.Total <= 0 {
				t.Fatalf("response = %+v", out)
			}
			// The returned embedding must validate on our local copy.
			if err := doc.Network.Validate(out.Embedding); err != nil {
				t.Fatalf("returned embedding invalid: %v", err)
			}
		})
	}
}

// TestSolveEndpointErrors: the comparison algorithms run offline
// (sftembed), so over HTTP they answer the same 422 envelope as a name
// nobody ever served.
func TestSolveEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	doc := testInstance(t)

	for _, algo := range []string{"nope", "sca", "rsa", "onenode", "bks"} {
		t.Run("algo="+algo, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: doc, Algorithm: algo})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422", resp.StatusCode)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("unknown algorithm %q", algo); body.Error != want {
				t.Errorf("error = %q, want %q", body.Error, want)
			}
		})
	}

	bad := doc
	bad.Task.Chain = nil
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid task: status %d", resp.StatusCode)
	}

	r, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", r.StatusCode)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	doc := testInstance(t)
	res, err := core.Solve(doc.Network, doc.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Instance: doc, Embedding: res.Embedding})
	var out ValidateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Valid || out.Delivered != 3 {
		t.Fatalf("verdict = %+v", out)
	}

	// Corrupt the embedding: must be reported invalid with a reason.
	broken := res.Embedding.Clone()
	broken.Walks = broken.Walks[:1]
	resp = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Instance: doc, Embedding: broken})
	out = ValidateResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Valid || out.Reason == "" {
		t.Fatalf("verdict = %+v", out)
	}
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	task := nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}}

	resp := postJSON(t, ts.URL+"/v1/sessions", task)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d", resp.StatusCode)
	}
	var admitted AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}
	if admitted.Cost <= 0 {
		t.Fatalf("admitted = %+v", admitted)
	}

	statResp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer statResp.Body.Close()
	var stats struct {
		Admitted int `json:"admitted"`
		Active   int `json:"active"`
	}
	if err := json.NewDecoder(statResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admitted != 1 || stats.Active != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, admitted.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("release status = %d", delResp.StatusCode)
	}

	// Releasing again: 404.
	again, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	if again.StatusCode != http.StatusNotFound {
		t.Errorf("double release status = %d", again.StatusCode)
	}

	// Bad id: 400.
	badReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/abc", nil)
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(badReq)
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", badResp.StatusCode)
	}
}

func TestReadyz(t *testing.T) {
	net, _ := sessionNetwork(t)
	for _, served := range []*nfv.Network{nil, net} {
		withNet := served != nil
		_, ts := newTestServer(t, served, Config{})
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("withNet=%v: status = %d", withNet, resp.StatusCode)
		}
		var body struct {
			Status      string `json:"status"`
			SessionsAPI bool   `json:"sessions_api"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Status != "ready" || body.SessionsAPI != withNet {
			t.Errorf("withNet=%v: body = %+v", withNet, body)
		}
	}
}

func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})

	// Malformed body: 400 with {"error": ...}.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertErrorEnvelope(t, resp, http.StatusBadRequest)

	// Oversized body: 413 with {"error": ...}.
	huge := strings.NewReader(`{"instance":{"network":{"pad":"` + strings.Repeat("x", MaxBodyBytes+1) + `"}}}`)
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertErrorEnvelope(t, resp, http.StatusRequestEntityTooLarge)

	// A short body naming one node more than nfv's metric budget admits
	// (4 096 nodes at 12 B a pair in 192 MiB): 413 before anything is built.
	bound := strings.NewReader(`{"instance":{"network":{"nodes":4097,"edges":[{"u":0,"v":1,"cost":1}],` +
		`"catalog":[{"id":0,"name":"f","demand":1}],"servers":[{"node":0,"capacity":1}]},` +
		`"task":{"source":0,"destinations":[1],"chain":[0]}}}`)
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertErrorEnvelope(t, resp, http.StatusRequestEntityTooLarge)

	// Unknown route: JSON 404, not net/http's text page.
	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	assertErrorEnvelope(t, resp, http.StatusNotFound)
}

func assertErrorEnvelope(t *testing.T, resp *http.Response, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("body is not a JSON envelope: %v", err)
	}
	if body.Error == "" {
		t.Error("envelope has empty error message")
	}
}

// TestSolveFeedsMetrics is the acceptance check: one POST /v1/solve
// must increment the per-route latency histogram AND record solver
// phase timings through the attached observer.
func TestSolveFeedsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, nil, Config{Registry: reg})
	if srv.Registry() != reg {
		t.Fatal("Registry() does not return the wired registry")
	}

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance(t)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}

	snap := reg.Snapshot()
	if got := snap.Histograms["http_request_ms|POST /v1/solve"].Count; got != 1 {
		t.Errorf("route histogram count = %d, want 1", got)
	}
	if got := snap.Counters["http_responses_total|POST /v1/solve|2xx"]; got != 1 {
		t.Errorf("2xx counter = %d, want 1", got)
	}
	if got := snap.Counters["solver_solves_total"]; got != 1 {
		t.Errorf("solver_solves_total = %d, want 1", got)
	}
	for _, h := range []string{"solver_stage1_ms", "solver_stage2_ms"} {
		if got := snap.Histograms[h].Count; got < 1 {
			t.Errorf("%s count = %d, want >= 1", h, got)
		}
	}

	// The /metrics endpoint serves the same snapshot as JSON.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	var served obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Counters["solver_solves_total"] != 1 {
		t.Errorf("/metrics solver_solves_total = %d", served.Counters["solver_solves_total"])
	}
}

// TestSessionMetrics: admissions and releases show up in the manager's
// instrumented counters and gauges.
func TestSessionMetrics(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	task := nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}}

	resp := postJSON(t, ts.URL+"/v1/sessions", task)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit status = %d", resp.StatusCode)
	}
	var admitted AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&admitted); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sessions_admitted_total"] != 1 || snap.Gauges["sessions_live"] != 1 {
		t.Errorf("admit metrics: admitted=%d live=%d",
			snap.Counters["sessions_admitted_total"], snap.Gauges["sessions_live"])
	}
	if snap.Histograms["session_solve_ms"].Count != 1 {
		t.Errorf("session_solve_ms count = %d", snap.Histograms["session_solve_ms"].Count)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", ts.URL, admitted.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	mresp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp2.Body.Close()
	snap = obs.Snapshot{}
	if err := json.NewDecoder(mresp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sessions_released_total"] != 1 || snap.Gauges["sessions_live"] != 0 {
		t.Errorf("release metrics: released=%d live=%d",
			snap.Counters["sessions_released_total"], snap.Gauges["sessions_live"])
	}
}

func TestSessionsWithoutNetwork(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	resp := postJSON(t, ts.URL+"/v1/sessions", nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0}})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("status = %d, want 501", resp.StatusCode)
	}
	statResp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer statResp.Body.Close()
	if statResp.StatusCode != http.StatusNotImplemented {
		t.Errorf("stats status = %d, want 501", statResp.StatusCode)
	}
}
