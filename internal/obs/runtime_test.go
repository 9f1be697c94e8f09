package obs

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sftree/internal/core"
	"sftree/internal/faults"
	"sftree/internal/netgen"
)

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 0.25
	reg.GaugeFunc("cache_hit_rate", func() float64 { return v })
	if got := reg.Snapshot().Floats["cache_hit_rate"]; got != 0.25 {
		t.Errorf("float = %v, want 0.25", got)
	}
	v = 0.75
	if got := reg.Snapshot().Floats["cache_hit_rate"]; got != 0.75 {
		t.Errorf("float after update = %v, want 0.75", got)
	}
	// Re-registering replaces the callback.
	reg.GaugeFunc("cache_hit_rate", func() float64 { return 1 })
	if got := reg.Snapshot().Floats["cache_hit_rate"]; got != 1 {
		t.Errorf("float after re-register = %v, want 1", got)
	}
	// Non-finite values are clamped so the JSON snapshot stays valid.
	reg.GaugeFunc("bad", func() float64 { return math.NaN() })
	reg.GaugeFunc("worse", func() float64 { return math.Inf(1) })
	snap := reg.Snapshot()
	if snap.Floats["bad"] != 0 || snap.Floats["worse"] != 0 {
		t.Errorf("non-finite floats not clamped: %v", snap.Floats)
	}
}

func TestHistogramP999(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", LatencyBuckets)
	for i := 0; i < 990; i++ {
		h.Observe(1.0) // bulk in the ~1ms band
	}
	for i := 0; i < 10; i++ {
		h.Observe(400) // slow outliers past the p99 rank
	}
	snap := reg.Snapshot().Histograms["lat"]
	if snap.P50 > 2 {
		t.Errorf("p50 = %v, want <= 2", snap.P50)
	}
	if snap.P999 < 100 {
		t.Errorf("p999 = %v, want to land in the outlier band", snap.P999)
	}
	if snap.P999 < snap.P99 || snap.P99 < snap.P50 {
		t.Errorf("quantiles not monotone: p50=%v p99=%v p999=%v", snap.P50, snap.P99, snap.P999)
	}
}

// TestRegisterCacheStats drives real cache traffic (a cold+warm Metric
// lookup, a fault materialization cycle) and checks the bridged floats
// move.
func TestRegisterCacheStats(t *testing.T) {
	reg := NewRegistry()
	RegisterCacheStats(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"metric_cache_hits", "metric_cache_misses", "metric_cache_hit_rate",
		"apsp_cache_hits", "apsp_cache_misses", "apsp_cache_hit_rate",
		"sfc_rows_relaxed_total", "sfc_rows_dominated_total", "sfc_rows_total",
		"kmb_trees_total", "kmb_general_branch_total", "kmb_path_memo_hit_rate",
		"sp_pool_gets", "sp_pool_news", "sp_pool_reuse_rate",
	} {
		if _, ok := snap.Floats[name]; !ok {
			t.Errorf("float %s not registered", name)
		}
	}

	net, err := netgen.Generate(netgen.PaperConfig(30, 2), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Floats
	net.Metric() // build (or reuse the generator's) closure
	net.Metric() // generation-valid: a guaranteed hit
	after := reg.Snapshot().Floats
	if after["metric_cache_hits"] <= before["metric_cache_hits"] {
		t.Error("metric cache hit not counted")
	}

	// One pristine materialization cycle: the materialized network is a
	// fresh object, so its first Metric call is a metric-cache miss
	// served by the passthrough supplier — an APSP-cache hit.
	st := faults.NewState(net)
	deg, err := st.Materialize(net)
	if err != nil {
		t.Fatal(err)
	}
	deg.Metric()
	final := reg.Snapshot().Floats
	if final["metric_cache_misses"] <= before["metric_cache_misses"] {
		t.Error("metric cache miss not counted for the fresh materialization")
	}
	if final["apsp_cache_hits"] <= before["apsp_cache_hits"] {
		t.Error("apsp cache hit not counted for pristine passthrough")
	}

	// One solve: a KMB tree per candidate host over shared destinations,
	// so the path memo is hit far more often than it is filled.
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(4)), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Solve(net, task, core.Options{}); err != nil {
		t.Fatal(err)
	}
	solved := reg.Snapshot().Floats
	if solved["kmb_trees_total"] <= final["kmb_trees_total"] {
		t.Error("KMB trees of a solve not counted")
	}
	// The chain search read some of the overlay's rows, and relaxed and
	// skipped no more than the rows it had.
	relaxed := solved["sfc_rows_relaxed_total"] - final["sfc_rows_relaxed_total"]
	dominated := solved["sfc_rows_dominated_total"] - final["sfc_rows_dominated_total"]
	if rows := solved["sfc_rows_total"] - final["sfc_rows_total"]; relaxed <= 0 || dominated < 0 || relaxed+dominated > rows {
		t.Errorf("a solve moved sfc_rows_relaxed_total by %v, sfc_rows_dominated_total by %v and sfc_rows_total by %v", relaxed, dominated, rows)
	}
	if r := solved["kmb_path_memo_hit_rate"]; r <= 0.5 || r > 1 {
		t.Errorf("kmb_path_memo_hit_rate = %v after a solve, want in (0.5, 1]", r)
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := StartRuntimeSampler(ctx, reg, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	snap := reg.Snapshot()
	if g := snap.Gauges["runtime_goroutines"]; g <= 0 {
		t.Errorf("runtime_goroutines = %d, want > 0", g)
	}
	if g := snap.Gauges["runtime_heap_alloc_bytes"]; g <= 0 {
		t.Errorf("runtime_heap_alloc_bytes = %d, want > 0", g)
	}
	if _, ok := snap.Histograms["runtime_gc_pause_ms"]; !ok {
		t.Error("runtime_gc_pause_ms histogram not registered")
	}
	// stop must be idempotent-safe against a cancelled context too.
	cancel()
}

// TestSolverHistogramsSubMillisecond asserts the solver-phase
// histograms use the sub-millisecond bucket ladder: a ~1.3ms warm
// solve must not collapse into one giant catch-all bucket.
func TestSolverHistogramsSubMillisecond(t *testing.T) {
	if LatencyBuckets[0] >= 0.1 {
		t.Fatalf("LatencyBuckets[0] = %v, want sub-0.1ms resolution", LatencyBuckets[0])
	}
	reg := NewRegistry()
	obsv := NewMetricsObserver(reg)
	net, err := netgen.Generate(netgen.PaperConfig(40, 2), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	task, err := netgen.GenerateTask(net, rand.New(rand.NewSource(8)), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Solve(net, task, core.Options{Observer: obsv}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot().Histograms["solver_stage1_ms"]
	if snap.Count != 1 {
		t.Fatalf("stage1 count = %d", snap.Count)
	}
	if len(snap.Buckets) < 10 {
		t.Errorf("stage1 histogram has %d buckets, want the fine-grained ladder", len(snap.Buckets))
	}
}
