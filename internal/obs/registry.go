// Package obs is the observability layer for the serving stack: a
// stdlib-only registry of named counters, gauges and fixed-bucket
// latency histograms (atomic hot path, JSON and expvar export),
// consumers for the solver's structured phase events (span recorder
// and trace ring, metrics bridge), and HTTP middleware adding
// request IDs, structured access logs and per-route metrics.
package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (in-flight requests, live sessions).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets is the default latency bucket layout, in milliseconds:
// quarter-millisecond resolution at the fast end, ten seconds at the
// slow end, one implicit +Inf overflow bucket.
var DefBuckets = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// LatencyBuckets is the fine-grained layout for solver and admission
// latencies, whose warm-solve mode sits near one millisecond: 25 µs
// resolution below a millisecond so sub-millisecond percentiles
// interpolate inside narrow buckets instead of collapsing onto the
// 0.25 ms DefBuckets floor, then the standard decades up to 10 s.
var LatencyBuckets = []float64{
	0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5, 7.5, 10,
	25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// Histogram is a fixed-bucket distribution with an atomic hot path:
// Observe is one binary search plus three atomic adds, no locks.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (for latency histograms, milliseconds).
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x, len(bounds) = overflow
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(x)
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the owning bucket, the standard fixed-bucket
// estimate. It returns 0 with no observations and the largest finite
// bound for observations in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if float64(cum) >= rank {
			if i >= len(h.bounds) { // overflow bucket: clamp to last bound
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			inBucket := h.buckets[i].Load()
			if inBucket == 0 {
				return hi
			}
			frac := (rank - float64(cum-inBucket)) / float64(inBucket)
			return lo + (hi-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// atomicFloat is a float64 accumulated with a CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(x float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Registry holds named metrics. Lookups take a read lock only on the
// first use of a name; the returned handles are lock-free, so callers
// on hot paths should capture them once. The zero value is not usable;
// create registries with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	floats   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		floats:   make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (nil means DefBuckets) on first use. An existing
// histogram keeps its original buckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	r.hists[name] = h
	return h
}

// GaugeFunc registers a callback gauge: fn is evaluated at every
// Snapshot (and therefore every /metrics scrape), so derived values —
// cache hit rates, pool reuse fractions, runtime levels — stay current
// without a sampling loop. Re-registering a name replaces the
// callback. fn must be safe for concurrent use; NaN and ±Inf results
// are clamped to 0 to keep the JSON document valid.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.floats[name] = fn
}

// BucketCount is one cumulative histogram bucket in a snapshot; LE is
// the inclusive upper bound rendered as a string ("+Inf" for the
// overflow bucket) so the JSON stays valid.
type BucketCount struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	P999    float64       `json:"p999"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in the registry,
// the document GET /metrics serves. Floats carries the callback gauges
// (GaugeFunc), evaluated at snapshot time.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Floats     map[string]float64           `json:"floats,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every metric. Callback
// gauges are evaluated after the registry lock is released, so a
// callback may itself read registry handles.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	var fns map[string]func() float64
	if len(r.floats) > 0 {
		fns = make(map[string]func() float64, len(r.floats))
		for name, fn := range r.floats {
			fns[name] = fn
		}
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		}
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			hs.Buckets = append(hs.Buckets, BucketCount{LE: le, Count: cum})
		}
		s.Histograms[name] = hs
	}
	r.mu.RUnlock()
	if fns != nil {
		s.Floats = make(map[string]float64, len(fns))
		for name, fn := range fns {
			v := fn()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Floats[name] = v
		}
	}
	return s
}

// Handler serves the registry snapshot as indented JSON (GET only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// expvarRegs tracks which names have been exported via expvar and
// which registry currently backs each one. expvar.Publish panics on a
// duplicate name, so PublishExpvar publishes a name once and repoints
// later registrations (servers restarted in-process, tests).
var (
	expvarMu   sync.Mutex
	expvarRegs = map[string]*Registry{}
)

// PublishExpvar exports the registry's snapshot under the given expvar
// name (readable at /debug/vars). Calling it again — with the same or
// another registry — repoints the existing export instead of
// panicking like raw expvar.Publish would.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarRegs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			reg := expvarRegs[name]
			expvarMu.Unlock()
			return reg.Snapshot()
		}))
	}
	expvarRegs[name] = r
}
