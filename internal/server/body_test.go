package server

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/nfv"
	"sftree/internal/obs"
)

// TestTrailingDataRefused: a request body is one JSON document. Data
// after it — a second document, garbage — is a malformed body and
// answers 400 on every route that reads one, and a refused admission
// admits nothing. Whitespace after the document is fine.
func TestTrailingDataRefused(t *testing.T) {
	net, task := sessionNetwork(t)
	srv, ts := newTestServer(t, net, Config{})
	doc := testInstance(t)
	res, err := core.Solve(doc.Network, doc.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v any) string {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	taskDoc := encode(task)
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for _, tc := range []struct{ path, doc string }{
		{"/v1/sessions", taskDoc},
		{"/v1/solve", encode(SolveRequest{Instance: doc})},
		{"/v1/validate", encode(ValidateRequest{Instance: doc, Embedding: res.Embedding})},
	} {
		t.Run(tc.path, func(t *testing.T) {
			for _, trailer := range []string{taskDoc + "trailing-garbage", "{}", "x", "]"} {
				assertErrorEnvelope(t, post(tc.path, tc.doc+trailer), http.StatusBadRequest)
			}
			want := http.StatusOK
			if tc.path == "/v1/sessions" {
				want = http.StatusCreated
			}
			if resp := post(tc.path, tc.doc+" \n\t\r\n"); resp.StatusCode != want {
				t.Errorf("document plus whitespace: status %d, want %d", resp.StatusCode, want)
			}
		})
	}
	if st := srv.Manager().Stats(); st.Admitted != 1 || st.Rejected != 0 {
		t.Errorf("manager admitted %d and rejected %d, want only the whitespace-trailed admission", st.Admitted, st.Rejected)
	}
}

// TestRuntimeAndPoolGauges reads the garbage collector's cumulative
// cost from a live server's /metrics after a run of admissions and
// releases, and checks that the request-body pool recycles: a get and
// put of a grown buffer allocates nothing, and a buffer past
// maxPooledBody is not kept. The pools serve no gauges of their own
// (the overlay and recorder pools are held to recycling by
// TestScaffoldLifetime and TestStartTraceRecordsOutcome).
func TestRuntimeAndPoolGauges(t *testing.T) {
	net, _ := sessionNetwork(t)
	_, ts := newTestServer(t, net, Config{})
	client := NewClient(ts.URL, nil)
	ctx := context.Background()
	tasks := []nfv.Task{
		{Source: 0, Destinations: []int{5, 9}, Chain: nfv.SFC{0, 1}},
		{Source: 3, Destinations: []int{7, 11, 14}, Chain: nfv.SFC{2, 4, 1}},
	}
	var prev dynamic.SessionID
	for i := 0; i < 20; i++ {
		resp, err := client.Admit(ctx, tasks[i%len(tasks)])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := client.Release(ctx, prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = resp.ID
	}
	if err := client.Release(ctx, prev); err != nil {
		t.Fatal(err)
	}
	runtime.GC()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"runtime_alloc_bytes_total", "runtime_gc_cycles_total", "runtime_gc_cpu_seconds_total"} {
		if v, ok := snap.Floats[name]; !ok || v <= 0 {
			t.Errorf("%s = %v (present %v), want > 0 after a collection", name, v, ok)
		}
	}
	for _, pool := range []string{"scaffold_pool", "trace_recorder_pool", "http_body_pool"} {
		if _, ok := snap.Floats[pool+"_reuse_rate"]; ok {
			t.Errorf("/metrics serves %s gauges again", pool)
		}
	}

	// One processor: sync.Pool hands a Get what the last Put on the same
	// processor left. The race detector drops a share of what it is
	// handed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := strings.Repeat("x", 4<<10)
	allocs := testing.AllocsPerRun(20, func() {
		buf := bodies.get()
		buf.WriteString(payload)
		bodies.put(buf)
	})
	if allocs != 0 && !raceDetector {
		t.Errorf("a body buffer get and put allocated %v times: the pool does not recycle", allocs)
	}
	big := bodies.get()
	big.Grow(2 * maxPooledBody)
	bodies.put(big)
	if again := bodies.get(); again == big {
		t.Errorf("the pool kept a %d-byte buffer, past its %d-byte cap", big.Cap(), maxPooledBody)
	}
}
