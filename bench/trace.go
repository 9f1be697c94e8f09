package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer was created; Trace groups the spans
// of one operation and Parent names the span that caused this one (0
// for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace hands out the identifier the spans of one operation share.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span and returns its id for children.
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// layerOf is the module a span belongs to: the part of its name before
// the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the time its
// direct children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		d := s.End - s.Start - child[s.ID]
		if d < 0 {
			d = 0
		}
		self[layerOf(s.Name)] += d
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// coverage is the share of the operations' time that a directly timed
// inner call accounts for: the durations of leaf spans that have a
// parent, over the durations of the root spans. The rest is self time
// obtained by subtraction, which in-program spans would have to split.
func coverage(spans []span) float64 {
	hasChild := make(map[int]bool, len(spans))
	for _, s := range spans {
		hasChild[s.Parent] = true
	}
	var roots, leaves int64
	for _, s := range spans {
		switch {
		case layerOf(s.Name) == "probe":
		case s.Parent == 0:
			roots += s.End - s.Start
		case !hasChild[s.ID]:
			leaves += s.End - s.Start
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(leaves) / float64(roots)
}
