package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sftree/internal/nfv"
)

func TestClientAgainstServer(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	doc := testInstance(t)
	solved, err := c.Solve(ctx, SolveRequest{Instance: doc})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if solved.Cost.Total <= 0 || solved.Embedding == nil {
		t.Fatalf("solve response: %+v", solved)
	}

	verdict, err := c.Validate(ctx, ValidateRequest{Instance: doc, Embedding: solved.Embedding})
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !verdict.Valid {
		t.Fatalf("verdict: %+v", verdict)
	}

	sess, err := c.Admit(ctx, nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	stats, err := c.SessionStats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Active != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := c.Release(ctx, sess.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := c.Release(ctx, sess.ID); !isNotFound(err) {
		t.Fatalf("double release: %v", err)
	}
}

func TestClientErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	doc := testInstance(t)
	_, err := c.Solve(ctx, SolveRequest{Instance: doc, Algorithm: "bogus"})
	var apiErr *APIError
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("err = %#v", err)
	}

	// Sessions unavailable on a stateless server.
	if _, err := c.Admit(ctx, nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0}}); err == nil {
		t.Fatal("admit on stateless server succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, ts := newTestServer(t, nil, Config{})
	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Health(ctx); err == nil {
		t.Fatal("cancelled context succeeded")
	}
}

// isNotFound reports whether err is an APIError with status 404.
func isNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// failingServer answers every request 500 with a JSON error body and
// counts the requests it saw.
func failingServer(t *testing.T) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"transient"}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// checkSentOnce requires err to carry the failing server's status and
// message, and the server to have seen exactly one request.
func checkSentOnce(t *testing.T, err error, hits *atomic.Int32) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError || apiErr.Message != "transient" {
		t.Fatalf("err = %v, want APIError 500 \"transient\"", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestClientNoPolicyNoRetry: the client has no retry policy, so a
// failing GET is sent once and its error surfaces.
func TestClientNoPolicyNoRetry(t *testing.T) {
	ts, hits := failingServer(t)
	checkSentOnce(t, NewClient(ts.URL, nil).Health(context.Background()), hits)
}

// TestClientNeverRetriesPOST: a failed POST may have reached the
// server, and the client sends it once.
func TestClientNeverRetriesPOST(t *testing.T) {
	ts, hits := failingServer(t)
	_, err := NewClient(ts.URL, nil).Admit(context.Background(), nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0}})
	checkSentOnce(t, err, hits)
}
