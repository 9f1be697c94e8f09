package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"sftree/internal/core"
)

// Trace is one completed, request-scoped solver run: the span tree the
// SpanRecorder rebuilt, stamped with the originating request ID and
// the run-level attributes the serving path cares about. It is the
// unit /debug/traces serves and cmd/sfttrace consumes.
type Trace struct {
	// RequestID is the X-Request-ID of the originating HTTP request
	// (empty for runs outside a request, e.g. fault repairs driven by
	// the chaos harness).
	RequestID string `json:"request_id,omitempty"`
	// Op names the serving-path operation: "solve" (stateless),
	// "admit" (session admission), "repair" (a fault repair's patch
	// solve).
	Op string `json:"op"`
	// Session is the affected session ID for repair traces; -1 when
	// not applicable (stateless solves, failed admissions).
	Session int `json:"session"`
	// Warm reports the solve ran on a cached metric closure (no APSP
	// build); EarlyStop that the deadline expired mid-solve.
	Warm      bool `json:"warm"`
	EarlyStop bool `json:"early_stop,omitempty"`
	// Retries counts solve reruns forced by commit conflicts: for
	// admissions, how many times a concurrent commit invalidated the
	// optimistic solve before this trace's spans were committed (0 on
	// the uncontended path).
	Retries int `json:"retries,omitempty"`
	// Speculative marks an admission the queue solved ahead of its
	// turn. Without Stale the spans are that solve, committed as it
	// was, and the wait for the turn is left out of DurationNs; with
	// Stale the network had moved by then, the solve was discarded, and
	// the trace is the re-solve at the head of the line.
	Speculative bool `json:"speculative,omitempty"`
	Stale       bool `json:"stale,omitempty"`
	// Start and DurationNs bracket the run's wall time.
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"duration_ns"`
	// Err carries the solver error for failed runs (rejections).
	Err string `json:"error,omitempty"`
	// Spans is the solver phase tree (stage1/stage2/opa passes/moves),
	// every node of which belongs to this request.
	Spans []*Span `json:"spans,omitempty"`
}

// TraceBuffer is a bounded ring of recent traces: writers never block
// and never grow memory past the capacity — when full, the oldest
// trace is dropped and counted. Safe for concurrent use.
//
// A trace recorded with its solver events (Record) keeps them raw, in
// a buffer its ring slot reuses from one trace to the next; the span
// tree is built from them only when the ring is read (Snapshot, the
// /debug/traces handler). So a traced run leaves nothing for the
// garbage collector once the ring has come round, and a read returns
// the same trees the recorder would have built.
type TraceBuffer struct {
	mu      sync.Mutex
	buf     []traceSlot
	next    int // ring write cursor
	full    bool
	added   int64
	dropped int64
}

// traceSlot is one ring entry: the trace, and for a Recorded one the
// solver events its Warm flag and Spans are built from.
type traceSlot struct {
	t      Trace
	raw    bool
	events []core.Event
}

// trace returns the slot's trace with its spans built.
func (s *traceSlot) trace() Trace {
	t := s.t
	if s.raw {
		for _, e := range s.events {
			t.Warm = t.Warm || e.Kind == core.EventAPSPBuild && e.Warm
		}
		t.Spans = spansOf(s.events)
	}
	return t
}

// DefaultTraceCap is the ring capacity NewTraceBuffer(0) uses.
const DefaultTraceCap = 256

// NewTraceBuffer returns a ring holding the most recent capacity
// traces (0 means DefaultTraceCap).
func NewTraceBuffer(capacity int) *TraceBuffer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceBuffer{buf: make([]traceSlot, capacity)}
}

// Record appends one trace, evicting the oldest when the ring is full.
// With a recorder, the trace's Warm flag and span tree are those of
// rec's events, which are copied into the slot, so rec may be reset or
// released once Record returns; with a nil rec the trace is kept as
// given.
func (b *TraceBuffer) Record(t Trace, rec *SpanRecorder) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		b.dropped++
	}
	s := &b.buf[b.next]
	b.next = (b.next + 1) % len(b.buf)
	if b.next == 0 && !b.full {
		b.full = true
	}
	b.added++
	s.t, s.raw, s.events = t, rec != nil, s.events[:0]
	if rec != nil {
		rec.mu.Lock()
		s.events = append(s.events, rec.events...)
		rec.mu.Unlock()
	}
}

// Len reports how many traces the ring currently holds.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		return len(b.buf)
	}
	return b.next
}

// Stats reports lifetime totals: traces added and traces evicted to
// make room.
func (b *TraceBuffer) Stats() (added, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.added, b.dropped
}

// Snapshot returns the buffered traces oldest-first, building the span
// trees of Recorded ones.
func (b *TraceBuffer) Snapshot() []Trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

// snapshotLocked is Snapshot with b.mu held.
func (b *TraceBuffer) snapshotLocked() []Trace {
	var out []Trace
	if b.full {
		out = make([]Trace, 0, len(b.buf))
		for i := b.next; i < len(b.buf); i++ {
			out = append(out, b.buf[i].trace())
		}
	}
	for i := 0; i < b.next; i++ {
		out = append(out, b.buf[i].trace())
	}
	return out
}

// traceDoc is the JSON document GET /debug/traces serves.
type traceDoc struct {
	Capacity int     `json:"capacity"`
	Added    int64   `json:"added"`
	Dropped  int64   `json:"dropped"`
	Traces   []Trace `json:"traces"`
}

// Handler serves the ring's contents as indented JSON, oldest trace
// first (GET/HEAD only). The totals and the traces are read under one
// lock, so added - dropped is always the number of traces served.
func (b *TraceBuffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		b.mu.Lock()
		doc := traceDoc{Capacity: cap(b.buf), Added: b.added, Dropped: b.dropped, Traces: b.snapshotLocked()}
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// StartTrace begins one solver run: stub names it (Op, RequestID,
// Session; the rest is filled in here). It returns a pooled
// SpanRecorder to tee into core.Options.Observer and a finish function
// that stamps the stub with the run's start, duration and outcome,
// adds it to the buffer with the recorded events, and releases the
// recorder, which must not be used after finish. A nil *TraceBuffer
// yields a nil recorder and a no-op finish, so call sites stay
// unconditional:
//
//	rec, finish := buf.StartTrace(obs.Trace{Op: "solve", RequestID: id, Session: -1})
//	opts.Observer = obs.Tee(opts.Observer, rec)
//	res, err := core.Solve(...)
//	finish(res, err)
func (b *TraceBuffer) StartTrace(stub Trace) (*SpanRecorder, func(res *core.Result, err error)) {
	if b == nil {
		return nil, func(*core.Result, error) {}
	}
	rec := AcquireRecorder()
	stub.Start = time.Now()
	return rec, func(res *core.Result, err error) {
		stub.DurationNs = time.Since(stub.Start).Nanoseconds()
		if res != nil {
			stub.EarlyStop = res.EarlyStop
		}
		if err != nil {
			stub.Err = err.Error()
		}
		b.Record(stub, rec)
		rec.Release()
	}
}
