package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"sftree/internal/netgen"
	"sftree/internal/nfv"
)

// TestSolveTimeoutMSReturnsValidEmbedding: a 1ms deadline on a sizable
// instance must still return a *valid* embedding promptly — the solver
// has anytime semantics — with the early-stop flag surfaced.
func TestSolveTimeoutMSReturnsValidEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, nil, Config{})
	doc := nfv.InstanceDoc{Network: net, Task: task}

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: doc, TimeoutMS: 1})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: solve took %v", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Embedding == nil {
		t.Fatal("no embedding under deadline")
	}
	if err := net.Validate(out.Embedding); err != nil {
		t.Fatalf("deadline-stopped embedding invalid: %v", err)
	}
	// With 1ms against a 60-node instance the solver cannot finish its
	// optimization sweep; it must say so.
	if !out.EarlyStop {
		t.Log("solver finished within 1ms; early_stop unset (machine unusually fast)")
	}
}

// TestServerSolveTimeoutCeiling: the server-wide ceiling applies even
// when the request asks for more (or nothing).
func TestServerSolveTimeoutCeiling(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{SolveTimeout: time.Millisecond})

	rng := rand.New(rand.NewSource(22))
	net, err := netgen.Generate(netgen.PaperConfig(60, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rng, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Ask for 60s: the 1ms server ceiling must win.
	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Instance:  nfv.InstanceDoc{Network: net, Task: task},
		TimeoutMS: 60_000,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server ceiling ignored: solve took %v", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Embedding == nil {
		t.Fatal("no embedding under ceiling")
	}
	if err := net.Validate(out.Embedding); err != nil {
		t.Fatalf("embedding invalid: %v", err)
	}
}

// TestAdmitTimeoutQueryParam: admissions accept ?timeout_ms= and reject
// garbage values.
func TestAdmitTimeoutQueryParam(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	task := nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}}
	resp := postJSON(t, ts.URL+"/v1/sessions?timeout_ms=500", task)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit with timeout: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/sessions?timeout_ms=banana", task)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout accepted: status %d", resp.StatusCode)
	}
}
