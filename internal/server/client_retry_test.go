package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/nfv"
)

// flakyHandler fails the first n requests with 500, then succeeds.
type flakyHandler struct {
	fails int32
	hits  int32
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := atomic.AddInt32(&h.hits, 1)
	if n <= atomic.LoadInt32(&h.fails) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"transient"}`))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}`))
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestClientRetriesIdempotent5xx(t *testing.T) {
	h := &flakyHandler{fails: 2}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL, nil).WithRetry(fastRetry(4))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if got := atomic.LoadInt32(&h.hits); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", got)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	h := &flakyHandler{fails: 100}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL, nil).WithRetry(fastRetry(3))
	err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want APIError 500", err)
	}
	if got := atomic.LoadInt32(&h.hits); got != 3 {
		t.Fatalf("server saw %d requests, want exactly MaxAttempts=3", got)
	}
}

func TestClientNeverRetriesPOST(t *testing.T) {
	h := &flakyHandler{fails: 100}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL, nil).WithRetry(fastRetry(5))
	_, err := c.Admit(context.Background(), nfv.Task{Source: 0, Destinations: []int{1}, Chain: nfv.SFC{0}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if got := atomic.LoadInt32(&h.hits); got != 1 {
		t.Fatalf("POST retried: server saw %d requests, want 1", got)
	}
}

func TestClientNoPolicyNoRetry(t *testing.T) {
	h := &flakyHandler{fails: 1}
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("unconfigured client retried")
	}
	if got := atomic.LoadInt32(&h.hits); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// flakyTransport fails the first n round-trips at the connection level.
type flakyTransport struct {
	fails int32
	calls int32
	inner http.RoundTripper
}

func (t *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if atomic.AddInt32(&t.calls, 1) <= atomic.LoadInt32(&t.fails) {
		return nil, errors.New("connection refused (simulated)")
	}
	return t.inner.RoundTrip(r)
}

func TestClientRetriesConnectionErrors(t *testing.T) {
	ts := httptest.NewServer(&flakyHandler{})
	defer ts.Close()
	tr := &flakyTransport{fails: 2, inner: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: tr}).WithRetry(fastRetry(4))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after connection errors: %v", err)
	}
	if got := atomic.LoadInt32(&tr.calls); got != 3 {
		t.Fatalf("%d round-trips, want 3", got)
	}
}

func TestClientHonorsRetryAfterAndContext(t *testing.T) {
	// The server always fails and demands a 5s pause; a 50ms caller
	// deadline must abort the backoff sleep promptly.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	// No MaxDelay cap: Retry-After's 5s would be honored in full.
	c := NewClient(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Health(ctx)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backoff ignored context: slept %v", elapsed)
	}
}

func TestBackoffRespectsRetryAfterCap(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
	resp := &http.Response{Header: http.Header{"Retry-After": []string{"7"}}}
	if d := p.backoff(1, resp); d != 10*time.Millisecond {
		t.Fatalf("Retry-After not capped: %v", d)
	}
	// Exponential growth stays within [d/2, d] for d the doubled base
	// capped at MaxDelay, however many attempts failed: the doubling
	// saturates instead of wrapping to a zero sleep.
	for n := 1; n <= 64; n++ {
		want := p.BaseDelay
		for i := 1; i < n && want < p.MaxDelay; i++ {
			want *= 2
		}
		want = min(want, p.MaxDelay)
		if d := p.backoff(n, nil); d < want/2 || d > want {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", n, d, want/2, want)
		}
	}
}

// TestClientRetriedReleaseThatCommitted loses the response of a release
// the server carried out: the retry finds the session gone, which is
// what the caller asked for, so the call succeeds. A 404 on a first
// attempt is still the caller's mistake.
func TestClientRetriedReleaseThatCommitted(t *testing.T) {
	net, _ := sessionNetwork(t)
	srv := New(net, core.Options{})
	closeQueue(t, srv)
	var dropped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodDelete || dropped.Swap(true) {
			srv.ServeHTTP(w, r)
			return
		}
		// Commit, then hang up instead of answering.
		srv.ServeHTTP(httptest.NewRecorder(), r)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil).WithRetry(fastRetry(3))
	ctx := context.Background()

	sess, err := c.Admit(ctx, nfv.Task{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := c.Release(ctx, sess.ID); err != nil {
		t.Fatalf("release whose first response was lost: %v", err)
	}
	if n := srv.Manager().Active(); n != 0 {
		t.Fatalf("%d sessions live after the release", n)
	}
	if err := c.Release(ctx, sess.ID); !IsNotFound(err) {
		t.Fatalf("release of an unknown session, first attempt: err = %v, want 404", err)
	}
}
