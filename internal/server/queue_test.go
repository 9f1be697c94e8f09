package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/graph"
	"sftree/internal/nfv"
)

// solverHold is a core.Options observer that parks every solver of the
// admission queue inside a solve: the first solvers solves announce
// themselves on parked as they start and block until open. The server
// gives its queue one solver per processor, so with that many solves
// held, requests posted meanwhile queue up behind busy solvers and
// tests assemble queue states by event instead of by timer.
type solverHold struct {
	solvers int
	left    atomic.Int32 // solves still to park
	parked  chan struct{}
	resume  chan struct{}
}

func newSolverHold() *solverHold {
	n := runtime.GOMAXPROCS(0)
	h := &solverHold{solvers: n, parked: make(chan struct{}, n), resume: make(chan struct{})}
	h.left.Store(int32(n))
	return h
}

func (h *solverHold) OnEvent(e core.Event) {
	if e.Kind != core.EventStage1Start || h.left.Add(-1) < 0 {
		return
	}
	h.parked <- struct{}{}
	<-h.resume
}

// awaitParked returns once one more solve is parked.
func (h *solverHold) awaitParked(t *testing.T, what string) {
	t.Helper()
	select {
	case <-h.parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached a solver", what)
	}
}

func (h *solverHold) open() { close(h.resume) }

// postAsync posts the task in the background and delivers the
// response, body closed (nil on a transport error).
func postAsync(url string, blob []byte) <-chan *http.Response {
	got := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			got <- nil
			return
		}
		resp.Body.Close()
		got <- resp
	}()
	return got
}

// wantStatus receives an async response and checks its status code.
func wantStatus(t *testing.T, what string, got <-chan *http.Response, status int) *http.Response {
	t.Helper()
	resp := <-got
	if resp == nil || resp.StatusCode != status {
		t.Fatalf("%s: response %+v, want status %d", what, resp, status)
	}
	return resp
}

// waitFor polls cond — a state only observable from outside, such as
// a request having reached the queue — until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdQueue posts n plug admissions, one at a time, and returns once n
// more solvers are parked inside their solves, with the queue empty
// behind them.
func holdQueue(t *testing.T, h *solverHold, n int, url string, blob []byte) []<-chan *http.Response {
	t.Helper()
	plugs := make([]<-chan *http.Response, n)
	for i := range plugs {
		plugs[i] = postAsync(url, blob)
		h.awaitParked(t, "plug admission")
	}
	return plugs
}

// wantPlugs checks that every plug was admitted.
func wantPlugs(t *testing.T, plugs []<-chan *http.Response) {
	t.Helper()
	for _, plug := range plugs {
		wantStatus(t, "plug", plug, http.StatusCreated)
	}
}

func TestQueuedAdmitSucceeds(t *testing.T) {
	net, task := sessionNetwork(t)
	srv, ts := newTestServer(t, net, Config{QueueDepth: 8})
	resp := postJSON(t, ts.URL+"/v1/sessions", task)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ar AdmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.SolveMS <= 0 {
		t.Errorf("solve_ms = %v, want > 0", ar.SolveMS)
	}
	if ar.WaitMS < 0 {
		t.Errorf("wait_ms = %v, want >= 0", ar.WaitMS)
	}
	if st := srv.Queue().Stats(); st.Admitted != 1 || st.Batches == 0 || st.Speculated != 0 {
		t.Errorf("queue stats = %+v: a lone ticket is solved at its turn", st)
	}
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(metrics.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"queue_speculations_total", "queue_speculations_stale_total"} {
		if !strings.Contains(body.String(), `"`+name+`"`) {
			t.Errorf("/metrics does not list %s", name)
		}
	}
}

// TestQueuedAdmitErrors is the table-driven contract for the enqueue
// endpoint's error surface: bad timeout_ms values stay 400 (validated
// before any enqueue), malformed tasks 400, infeasible tasks 409 —
// all wrapped in the JSON error envelope.
func TestQueuedAdmitErrors(t *testing.T) {
	net, task := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{QueueDepth: 8})
	blob, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		query  string
		body   string
		status int
	}{
		{name: "negative timeout_ms", query: "?timeout_ms=-5", body: string(blob), status: http.StatusBadRequest},
		{name: "overflow timeout_ms", query: fmt.Sprintf("?timeout_ms=%d", int64(1)<<62), body: string(blob), status: http.StatusBadRequest},
		{name: "unparseable timeout_ms", query: "?timeout_ms=soon", body: string(blob), status: http.StatusBadRequest},
		{name: "malformed body", body: "{nope", status: http.StatusBadRequest},
		{name: "invalid task", body: `{"source":-1,"destinations":[2],"chain":[0]}`, status: http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions"+tc.query, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var envelope errorBody
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
				t.Fatalf("error envelope missing: decode err %v, body %+v", err, envelope)
			}
		})
	}
}

// TestQueuedAdmitRejection posts a well-formed task to a network with
// zero server capacity: the task passes validation, reaches the
// solver through the queue, and the rejection must surface as 409
// with the JSON error envelope.
func TestQueuedAdmitRejection(t *testing.T) {
	g := graph.New(4)
	for v := 1; v < 4; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := nfv.NewNetwork(g, []nfv.VNF{{ID: 0, Name: "f0", Demand: 1}})
	for _, v := range []int{1, 2} {
		if err := net.SetServer(v, 0); err != nil { // servers exist, zero capacity
			t.Fatal(err)
		}
		if err := net.SetSetupCost(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	srv, ts := newTestServer(t, net, Config{QueueDepth: 8})

	task := nfv.Task{Source: 0, Destinations: []int{3}, Chain: nfv.SFC{0}}
	resp := postJSON(t, ts.URL+"/v1/sessions", task)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Fatalf("409 envelope missing: %v %+v", err, envelope)
	}
	if st := srv.Queue().Stats(); st.Rejected != 1 {
		t.Errorf("queue rejection not counted: %+v", st)
	}
}

// TestQueuedAdmitOverflow forces the bounded queue full behind busy
// solvers and asserts the 429 envelope carries Retry-After.
func TestQueuedAdmitOverflow(t *testing.T) {
	h := newSolverHold()
	net, task := sessionNetwork(t)
	srv, ts := newTestServerOpts(t, net, core.Options{Observer: h}, Config{QueueDepth: 1})
	blob, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/sessions"

	// One admission occupies each solver, the next fills the single
	// slot, the one after finds the queue full.
	plugs := holdQueue(t, h, h.solvers, url, blob)
	queued := postAsync(url, blob)
	waitFor(t, "the second request to reach the queue", func() bool { return srv.Queue().Stats().Depth == 1 })

	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Fatalf("error envelope missing: %v %+v", err, envelope)
	}
	if srv.Queue().Stats().Overflow != 1 {
		t.Error("overflow not counted")
	}

	// /readyz reports the saturated queue as degraded.
	rdy, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rdy.Body.Close()
	var ready struct {
		Status    string `json:"status"`
		Saturated bool   `json:"queue_saturated"`
	}
	if err := json.NewDecoder(rdy.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "degraded" || !ready.Saturated {
		t.Errorf("readyz while saturated = %+v", ready)
	}

	h.open()
	wantPlugs(t, plugs)
	wantStatus(t, "queued request", queued, http.StatusCreated)
}

// TestQueuedAdmitExpires queues a 1 ms deadline behind busy solvers
// and lets it pass: the ticket must expire in-queue and answer 429
// with Retry-After, never reaching a solver.
func TestQueuedAdmitExpires(t *testing.T) {
	h := newSolverHold()
	net, task := sessionNetwork(t)
	srv, ts := newTestServerOpts(t, net, core.Options{Observer: h}, Config{QueueDepth: 8})
	blob, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	plugs := holdQueue(t, h, h.solvers, ts.URL+"/v1/sessions", blob)

	late := postAsync(ts.URL+"/v1/sessions?timeout_ms=1", blob)
	waitFor(t, "the deadlined request to reach the queue", func() bool { return srv.Queue().Stats().Depth == 1 })
	// Its deadline was fixed before it was enqueued, so 1 ms from now
	// it is certainly past.
	seen := time.Now()
	waitFor(t, "the queued deadline to pass", func() bool { return time.Since(seen) > time.Millisecond })
	h.open()

	if resp := wantStatus(t, "expired request", late, http.StatusTooManyRequests); resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	wantPlugs(t, plugs)
	if st := srv.Queue().Stats(); st.Expired != 1 || int(st.Admitted) != len(plugs) {
		t.Errorf("queue stats = %+v, want 1 expired, %d admitted", st, len(plugs))
	}
}

// TestQueuedAdmitClientGone covers the client that leaves before its
// answer: whether its ticket was still queued or already solving, the
// request ends 503-side and no session is left that nobody holds.
func TestQueuedAdmitClientGone(t *testing.T) {
	h := newSolverHold()
	net, task := sessionNetwork(t)
	srv, ts := newTestServerOpts(t, net, core.Options{Observer: h}, Config{QueueDepth: 8})
	blob, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/sessions"
	post := func(ctx context.Context) <-chan error {
		done := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
			if err != nil {
				done <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		return done
	}

	// The first client leaves mid-solve, the second while still queued
	// behind it and the plugs that keep the other solvers busy.
	solvingCtx, leaveSolving := context.WithCancel(context.Background())
	solving := post(solvingCtx)
	h.awaitParked(t, "first admission")
	plugs := holdQueue(t, h, h.solvers-1, url, blob)
	queuedCtx, leaveQueued := context.WithCancel(context.Background())
	queued := post(queuedCtx)
	waitFor(t, "the second request to reach the queue", func() bool { return srv.Queue().Stats().Depth == 1 })
	leaveSolving()
	leaveQueued()
	for _, done := range []<-chan error{solving, queued} {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("client side: err = %v, want context.Canceled", err)
		}
	}
	// The server notices a closed connection asynchronously; both
	// handlers answer 503 into the void once it has.
	gone := srv.Registry().Counter("http_responses_total|POST /v1/sessions|5xx")
	waitFor(t, "the server to see both clients gone", func() bool { return gone.Value() == 2 })
	h.open()
	wantPlugs(t, plugs)
	waitFor(t, "both tickets to resolve", func() bool {
		st := srv.Queue().Stats()
		return st.Depth == 0 && int(st.Admitted+st.Canceled) == 2+len(plugs)
	})
	if st := srv.Queue().Stats(); st.Canceled != 2 {
		t.Errorf("queue stats = %+v, want both tickets canceled", st)
	}
	if n := srv.Manager().Active(); n != len(plugs) {
		t.Errorf("%d sessions live, want the %d plugs: the others nobody holds", n, len(plugs))
	}
	if err := srv.Manager().VerifyRefs(); err != nil {
		t.Error(err)
	}
}

// TestQueuedAdmitDraining closes the queue (the shutdown sequence's
// queue-drain step) and asserts new admissions answer 503.
func TestQueuedAdmitDraining(t *testing.T) {
	net, task := sessionNetwork(t)
	srv, ts := newTestServer(t, net, Config{QueueDepth: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Queue().Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sessions", task)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var envelope errorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Fatalf("error envelope missing: %v %+v", err, envelope)
	}
}
