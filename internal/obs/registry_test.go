package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("reqs") != c {
		t.Error("second lookup returned a different counter")
	}

	g := reg.Gauge("inflight")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 5000} { // last lands in +Inf bucket
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 0.5+0.7+5+50+5000 {
		t.Errorf("sum = %v", h.Sum())
	}
	if q := h.Quantile(0.5); q <= 0 || q > 10 {
		t.Errorf("p50 = %v, want in (0, 10]", q)
	}
	// Overflow observations clamp to the largest finite bound.
	if q := h.Quantile(1); q != 100 {
		t.Errorf("p100 = %v, want 100", q)
	}

	empty := reg.Histogram("empty", nil)
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	empty.Observe(7) // single observation: no NaN, no panic
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := empty.Quantile(q); v != v { // NaN check
			t.Errorf("quantile(%v) is NaN", q)
		}
	}

	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 6 {
		t.Errorf("ObserveDuration not recorded")
	}
}

func TestSnapshotAndHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Add(2)
	reg.Gauge("b").Set(-3)
	reg.Histogram("c", []float64{1, 2}).Observe(1.5)

	snap := reg.Snapshot()
	if snap.Counters["a"] != 2 || snap.Gauges["b"] != -3 {
		t.Errorf("snapshot = %+v", snap)
	}
	hs := snap.Histograms["c"]
	if hs.Count != 1 || len(hs.Buckets) != 3 || hs.Buckets[2].LE != "+Inf" {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	// Buckets are cumulative: the +Inf bucket carries the total count.
	if hs.Buckets[2].Count != 1 {
		t.Errorf("cumulative +Inf bucket = %d", hs.Buckets[2].Count)
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status = %d", rec.Code)
	}
	var decoded Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("handler body is not JSON: %v", err)
	}
	if decoded.Counters["a"] != 2 {
		t.Errorf("decoded = %+v", decoded)
	}

	rec = httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// TestIntegerReaders holds CounterFunc and IntGaugeFunc to their
// sections: the value is read at every Snapshot, a reader shadows a
// handle of its name, re-registering replaces it, and a reader runs
// after the registry lock is released, so it may take the lock of the
// component whose figure it reads even while that component is
// registering a metric.
func TestIntegerReaders(t *testing.T) {
	reg := NewRegistry()
	var (
		mu    sync.Mutex
		total int64
	)
	reg.Counter("admits").Add(100) // shadowed by the reader below
	reg.CounterFunc("admits", func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return total
	})
	reg.IntGaugeFunc("live", func() int64 {
		reg.Counter("touched").Inc() // would deadlock under the registry lock
		return 7
	})
	if s := reg.Snapshot(); s.Counters["admits"] != 0 || s.Gauges["live"] != 7 {
		t.Fatalf("first snapshot: counters %v gauges %v", s.Counters, s.Gauges)
	}
	mu.Lock()
	total = 3
	mu.Unlock()
	if got := reg.Snapshot().Counters["admits"]; got != 3 {
		t.Errorf("admits = %d after the owner counted 3, want 3", got)
	}
	reg.IntGaugeFunc("live", func() int64 { return -2 })
	s := reg.Snapshot()
	if s.Gauges["live"] != -2 || s.Counters["touched"] != 2 {
		t.Errorf("after re-registering: live = %d, touched = %d; want -2, 2", s.Gauges["live"], s.Counters["touched"])
	}
	if _, ok := s.Floats["live"]; ok {
		t.Error("an integer reader landed in the floats section")
	}
}

func TestPublishExpvarRepointsWithoutPanic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Inc()
	b.Counter("x").Add(10)
	a.PublishExpvar("obs_test_reg")
	a.PublishExpvar("obs_test_reg") // same registry again: no panic
	b.PublishExpvar("obs_test_reg") // repoint: reads must see b
	expvarMu.Lock()
	got := expvarRegs["obs_test_reg"]
	expvarMu.Unlock()
	if got != b {
		t.Error("expvar export did not repoint to the latest registry")
	}
}

// TestRegistryConcurrency hammers every registry entry point from many
// goroutines; run with -race (tools.sh does) to assert thread safety.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("level").Add(1)
				reg.Histogram("lat", nil).Observe(float64(i % 7))
				if i%50 == 0 {
					reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
	if got := reg.Histogram("lat", nil).Count(); got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
}
