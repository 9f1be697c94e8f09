package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// countingServer starts h behind a listener that counts the connections
// it accepts, and a Client allowed one connection at a time: a response
// body left unread or unclosed shows up as a second connection or as a
// call that never gets one.
func countingServer(t *testing.T, h http.Handler) (*Client, *atomic.Int32) {
	t.Helper()
	opened := new(atomic.Int32)
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	tr := &http.Transport{MaxConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	return NewClient(ts.URL, &http.Client{Transport: tr}), opened
}

// TestClientHoldsOneConnection is the keep-alive contract: whatever a
// call's outcome — a bodyless 2xx, a decoded 2xx, a 404 or 409 error
// envelope — it consumes its response, so a client making its calls one
// after another never dials twice.
func TestClientHoldsOneConnection(t *testing.T) {
	// A line 0-1-2 with one server that fits VNF 0 and not VNF 1.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	netw := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "fits", Demand: 1}, {ID: 1, Name: "too big", Demand: 2}})
	if err := netw.SetServer(1, 1); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		if err := netw.SetSetupCost(f, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(netw, core.Options{})
	closeQueue(t, srv)
	c, opened := countingServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	task := nfv.Task{Source: 0, Destinations: []int{2}, Chain: nfv.SFC{0}}
	var last AdmitResponse
	for i := 0; i < 200; i++ {
		sess, err := c.Admit(ctx, task)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if err := c.Release(ctx, sess.ID); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		last = *sess
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := c.Release(ctx, last.ID); !isNotFound(err) {
		t.Fatalf("release of a released session: err = %v, want 404", err)
	}
	var apiErr *APIError
	if _, err := c.Admit(ctx, nfv.Task{Source: 0, Destinations: []int{2}, Chain: nfv.SFC{1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("infeasible admit: err = %v, want 409", err)
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("%d connections opened for 403 sequential calls, want 1", n)
	}
}

// TestClientBoundedDrain serves a 2xx whose body is far past the drain
// bound to a call that reads none of it: the call must return its
// result at once and give the connection up — closed, not held — so
// the next call gets one.
func TestClientBoundedDrain(t *testing.T) {
	chunk := strings.Repeat("x", 32<<10)
	c, opened := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for sent := 0; sent < 64*drainLimit; sent += len(chunk) {
			if _, err := w.Write([]byte(chunk)); err != nil {
				return // the client hung up, as it should
			}
		}
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := c.Health(ctx); err != nil {
			t.Fatalf("health %d: %v", i, err)
		}
	}
	if n := opened.Load(); n < 1 || n > 3 {
		t.Errorf("%d connections opened for 3 calls", n)
	}
}
