package server

import (
	"context"
	"errors"
	"strings"
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
	if err := c.Release(ctx, sess.ID); !IsNotFound(err) {
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
