package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sftree/internal/core"
	"sftree/internal/nfv"
)

func TestTraceBufferRing(t *testing.T) {
	b := NewTraceBuffer(3)
	if b.Len() != 0 {
		t.Fatalf("fresh ring Len = %d", b.Len())
	}
	for i := 0; i < 5; i++ {
		b.Record(Trace{Op: "solve", RequestID: fmt.Sprintf("r%d", i)}, nil)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want capacity 3", b.Len())
	}
	added, dropped := b.Stats()
	if added != 5 || dropped != 2 {
		t.Errorf("Stats = (%d, %d), want (5, 2)", added, dropped)
	}
	snap := b.Snapshot()
	want := []string{"r2", "r3", "r4"} // oldest-first after eviction
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d traces, want %d", len(snap), len(want))
	}
	for i, id := range want {
		if snap[i].RequestID != id {
			t.Errorf("snapshot[%d].RequestID = %s, want %s", i, snap[i].RequestID, id)
		}
	}
}

func TestTraceBufferDefaultCap(t *testing.T) {
	b := NewTraceBuffer(0)
	for i := 0; i < DefaultTraceCap+10; i++ {
		b.Record(Trace{Op: "solve"}, nil)
	}
	if b.Len() != DefaultTraceCap {
		t.Errorf("Len = %d, want %d", b.Len(), DefaultTraceCap)
	}
}

func TestTraceBufferHandler(t *testing.T) {
	b := NewTraceBuffer(4)
	b.Record(Trace{Op: "admit", RequestID: "abc", Session: -1, Warm: true}, nil)
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Capacity int     `json:"capacity"`
		Added    int64   `json:"added"`
		Traces   []Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 4 || doc.Added != 1 || len(doc.Traces) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	tr := doc.Traces[0]
	if tr.Op != "admit" || tr.RequestID != "abc" || !tr.Warm || tr.Session != -1 {
		t.Errorf("round-tripped trace = %+v", tr)
	}
	// Trace files written while runs carried a "parallelism" attribute
	// still decode.
	var old Trace
	if err := json.Unmarshal([]byte(`{"op":"repair","session":3,"warm":true,"parallelism":2}`), &old); err != nil || old.Op != "repair" || old.Session != 3 || !old.Warm {
		t.Errorf("trace with the retired parallelism key: %+v, %v", old, err)
	}

	post, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", post.StatusCode)
	}
}

// TestStartTraceNilBuffer: a nil ring must hand back a nil recorder
// and a callable no-op finish, so call sites stay unconditional. The
// typed-nil recorder survives Tee's interface-nil filter, so it must
// absorb events and queries without panicking.
func TestStartTraceNilBuffer(t *testing.T) {
	var b *TraceBuffer
	rec, finish := b.StartTrace(Trace{Op: "solve", RequestID: "req", Session: -1})
	if rec != nil {
		t.Error("nil buffer returned a live recorder")
	}
	teed := Tee(nil, rec)
	teed.OnEvent(core.Event{Kind: core.EventStage1End}) // must not panic
	if got := rec.Events(); got != nil {
		t.Errorf("nil recorder recorded %v", got)
	}
	if s := rec.Spans(); s != nil {
		t.Errorf("nil recorder spans = %v", s)
	}
	finish(nil, nil) // must not panic
}

// TestStartTraceRecordsOutcome: finish stamps the caller's stub with
// the run's start, duration and outcome, keeps the recorded events in
// the ring, and releases the recorder, which StartTrace took from the
// recorder pool.
func TestStartTraceRecordsOutcome(t *testing.T) {
	// One processor and an emptied pool: sync.Pool hands a Get the
	// recorder the last Put left, so the pool's traffic shows as
	// identity. The race detector drops a share of what it is handed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for recorders.Get() != nil {
	}
	b := NewTraceBuffer(2)
	pooled := new(SpanRecorder)
	pooled.Release()
	rec, finish := b.StartTrace(Trace{Op: "solve", RequestID: "req-1", Session: -1})
	if rec != pooled && !raceDetector {
		t.Error("StartTrace did not take its recorder from the pool")
	}
	rec.OnEvent(core.Event{Kind: core.EventAPSPBuild, Warm: true})
	rec.OnEvent(core.Event{Kind: core.EventStage1End, Cost: 5})
	finish(&core.Result{EarlyStop: true}, nil)
	if n := len(rec.Events()); n != 0 {
		t.Errorf("finish left the recorder holding %d events: it was not released", n)
	}
	if again := AcquireRecorder(); again != rec && !raceDetector {
		t.Error("finish did not hand the recorder back to the pool")
	} else {
		again.Release()
	}

	_, finish = b.StartTrace(Trace{Op: "repair", Session: 7})
	finish(nil, fmt.Errorf("no capacity"))

	snap := b.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(snap))
	}
	ok, bad := snap[0], snap[1]
	if !ok.Warm || !ok.EarlyStop || len(ok.Spans) == 0 || ok.RequestID != "req-1" || ok.Session != -1 || ok.Start.IsZero() {
		t.Errorf("success trace = %+v", ok)
	}
	if bad.Err != "no capacity" || bad.Op != "repair" || bad.Session != 7 || bad.RequestID != "" {
		t.Errorf("failure trace = %+v", bad)
	}
}

// TestRecordedTraceJSON: a trace recorded with its events serves the
// JSON a trace built from the same recorder up front would, Warm flag
// and span tree included, and keeps it after the recorder is released
// and reused for another solve.
func TestRecordedTraceJSON(t *testing.T) {
	net, task := obsInstance(t)
	rec := AcquireRecorder()
	if _, err := core.Solve(net, task, core.Options{Observer: rec}); err != nil {
		t.Fatal(err)
	}
	tr := Trace{Op: "admit", RequestID: "req-1", Session: 3, DurationNs: 7}
	built := tr
	built.Spans = rec.Spans()
	built.Warm = built.Spans[0].Name == "apsp_build" && built.Spans[0].Attrs["warm"] == 1
	want, err := json.Marshal(built)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewTraceBuffer(2)
	ring.Record(tr, rec)
	rec.Release()
	again := AcquireRecorder()
	if _, err := core.Solve(net, nfv.Task{Source: task.Source, Destinations: task.Destinations[:2], Chain: task.Chain[:1]}, core.Options{Observer: again}); err != nil {
		t.Fatal(err)
	}
	again.Release()
	got, err := json.Marshal(ring.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("recorded trace serves\n%s\nwant\n%s", got, want)
	}
	if len(built.Spans) == 0 {
		t.Error("the solve recorded no spans")
	}
}

// TestTraceHandlerConsistentWhileFilling scrapes /debug/traces while
// another goroutine fills the ring: every document must count exactly
// the traces it serves. The writer records without pause, each record
// copying a long event log under the ring's lock, so a scrape contends
// for that lock on every acquisition until the ring is full (from then
// on added - dropped is the capacity either way).
func TestTraceHandlerConsistentWhileFilling(t *testing.T) {
	const rounds, capacity, events = 8, 64, 2000
	rec := &SpanRecorder{}
	for i := 0; i < events; i++ {
		rec.OnEvent(core.Event{Kind: core.EventStage1Start}) // copied by Record, no span built
	}
	scrapes := 0
	for r := 0; r < rounds; r++ {
		b := NewTraceBuffer(capacity)
		h := b.Handler()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < capacity; i++ {
				b.Record(Trace{Op: "admit"}, rec)
			}
		}()
		for filling := true; filling; scrapes++ {
			select {
			case <-done:
				filling = false
			default:
			}
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
			var doc traceDoc
			if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Added-doc.Dropped != int64(len(doc.Traces)) {
				t.Fatalf("round %d, scrape %d: added %d - dropped %d, but %d traces served",
					r, scrapes, doc.Added, doc.Dropped, len(doc.Traces))
			}
		}
	}
}
