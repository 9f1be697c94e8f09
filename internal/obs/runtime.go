package obs

import (
	"context"
	"runtime"
	"runtime/metrics"
	"time"

	"sftree/internal/faults"
	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
	"sftree/internal/steiner"
)

// RegisterCacheStats wires the process-global cache and pool counters
// into the registry as callback gauges, evaluated at every /metrics
// scrape:
//
//	metric_cache_hits / metric_cache_misses / metric_cache_hit_rate
//	    nfv.Network.Metric generation cache (APSP closure reuse)
//	apsp_cache_hits / apsp_cache_misses / apsp_cache_hit_rate
//	    faults.State per-down-set APSP cache
//	scaffold_cache_hits / scaffold_cache_misses / scaffold_cache_hit_rate
//	    mod.Cache signature-keyed MOD-overlay scaffolds (stage-one
//	    construction skipped on same-signature, same-deployment solves)
//	sfc_rows_relaxed_total / sfc_rows_dominated_total / sfc_rows_total
//	    mod.SolveSFC: predecessor rows the chain searches relaxed, rows
//	    they skipped because a relaxed row already undercut them, and
//	    the rows with a finite distance; relaxed/total is the share of
//	    the overlays' inter-column arcs that was read
//	kmb_trees_total / kmb_general_branch_total / kmb_path_memo_hit_rate
//	    steiner.Sweep: KMB trees built, how many of them were not
//	    already trees after the closure expansion (and so paid for
//	    Kruskal and pruning), and the share of destination-to-
//	    destination path lookups the per-solve memo served
//	sp_pool_gets / sp_pool_news / sp_pool_reuse_rate
//	    graph shortest-path scratch arenas (sync.Pool)
//	scaffold_pool_gets / scaffold_pool_news / scaffold_pool_reuse_rate
//	    mod.Build: overlays handed out, and how many came with the
//	    buffers of a released one (setup block, chain-search arrays,
//	    candidate rows)
//	trace_recorder_pool_gets / trace_recorder_pool_news /
//	trace_recorder_pool_reuse_rate
//	    AcquireRecorder: the span recorders of traced admissions and
//	    repairs, and how many reused a released recorder's buffer
//
// Hit and reuse rates are fractions in [0,1]; they read 0 until the
// first lookup.
func RegisterCacheStats(reg *Registry) {
	reg.GaugeFunc("metric_cache_hits", func() float64 { h, _ := nfv.MetricCacheStats(); return float64(h) })
	reg.GaugeFunc("metric_cache_misses", func() float64 { _, m := nfv.MetricCacheStats(); return float64(m) })
	reg.GaugeFunc("metric_cache_hit_rate", func() float64 {
		h, m := nfv.MetricCacheStats()
		return ratio(h, h+m)
	})
	reg.GaugeFunc("apsp_cache_hits", func() float64 { h, _ := faults.CacheStats(); return float64(h) })
	reg.GaugeFunc("apsp_cache_misses", func() float64 { _, m := faults.CacheStats(); return float64(m) })
	reg.GaugeFunc("apsp_cache_hit_rate", func() float64 {
		h, m := faults.CacheStats()
		return ratio(h, h+m)
	})
	reg.GaugeFunc("scaffold_cache_hits", func() float64 { h, _ := mod.CacheStats(); return float64(h) })
	reg.GaugeFunc("scaffold_cache_misses", func() float64 { _, m := mod.CacheStats(); return float64(m) })
	reg.GaugeFunc("scaffold_cache_hit_rate", func() float64 {
		h, m := mod.CacheStats()
		return ratio(h, h+m)
	})
	reg.GaugeFunc("sfc_rows_relaxed_total", func() float64 { r, _, _ := mod.SFCStats(); return float64(r) })
	reg.GaugeFunc("sfc_rows_dominated_total", func() float64 { _, d, _ := mod.SFCStats(); return float64(d) })
	reg.GaugeFunc("sfc_rows_total", func() float64 { _, _, n := mod.SFCStats(); return float64(n) })
	reg.GaugeFunc("kmb_trees_total", func() float64 { return float64(steiner.SweepStats().Trees) })
	reg.GaugeFunc("kmb_general_branch_total", func() float64 { return float64(steiner.SweepStats().GeneralTrees) })
	reg.GaugeFunc("kmb_path_memo_hit_rate", func() float64 {
		c := steiner.SweepStats()
		return ratio(c.MemoHits, c.MemoHits+c.MemoFills)
	})
	RegisterPool(reg, "sp_pool", graph.PoolStats)
	RegisterPool(reg, "scaffold_pool", mod.PoolStats)
	RegisterPool(reg, "trace_recorder_pool", RecorderPoolStats)
}

// ratio is hit/total, 0 before the first lookup.
func ratio(hit, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// RegisterPool exposes a pool's traffic as the callback gauges
// name_gets, name_news and name_reuse_rate: stats reports how many
// gets the pool served and how many of them it had to allocate.
func RegisterPool(reg *Registry, name string, stats func() (gets, news int64)) {
	reg.GaugeFunc(name+"_gets", func() float64 { g, _ := stats(); return float64(g) })
	reg.GaugeFunc(name+"_news", func() float64 { _, n := stats(); return float64(n) })
	reg.GaugeFunc(name+"_reuse_rate", func() float64 {
		g, n := stats()
		return ratio(g-n, g)
	})
}

// runtimeCounters are the runtime/metrics samples RegisterRuntimeStats
// exposes, by gauge name.
var runtimeCounters = map[string]string{
	"runtime_gc_cpu_seconds_total": "/cpu/classes/gc/total:cpu-seconds",
	"runtime_alloc_bytes_total":    "/gc/heap/allocs:bytes",
	"runtime_gc_cycles_total":      "/gc/cycles/total:gc-cycles",
}

// RegisterRuntimeStats exposes the Go runtime's cumulative garbage
// collector cost as callback gauges, read from runtime/metrics at
// every scrape: runtime_gc_cpu_seconds_total (the runtime's estimate
// of CPU time spent collecting, updated as cycles complete),
// runtime_alloc_bytes_total (bytes ever allocated on the heap) and
// runtime_gc_cycles_total (completed cycles). Their rates are what an
// allocation change moves: bytes per request, and the cycles and CPU
// that buys.
func RegisterRuntimeStats(reg *Registry) {
	for gauge, name := range runtimeCounters {
		reg.GaugeFunc(gauge, func() float64 {
			sample := []metrics.Sample{{Name: name}}
			metrics.Read(sample)
			switch v := sample[0].Value; v.Kind() {
			case metrics.KindUint64:
				return float64(v.Uint64())
			case metrics.KindFloat64:
				return v.Float64()
			}
			return 0
		})
	}
}

// StartRuntimeSampler launches the periodic Go-runtime sampler:
// every interval (0 means 5s) it refreshes the runtime_goroutines,
// runtime_heap_alloc_bytes, runtime_heap_objects and runtime_gc_total
// gauges and folds every GC pause completed since the previous sample
// into the runtime_gc_pause_ms histogram. The sampler stops when ctx
// is cancelled or when the returned function is called; stop blocks
// until the sampler goroutine has exited and is safe to call more
// than once.
func StartRuntimeSampler(ctx context.Context, reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	var (
		goroutines = reg.Gauge("runtime_goroutines")
		heapAlloc  = reg.Gauge("runtime_heap_alloc_bytes")
		heapObjs   = reg.Gauge("runtime_heap_objects")
		gcTotal    = reg.Gauge("runtime_gc_total")
		gcPause    = reg.Histogram("runtime_gc_pause_ms", LatencyBuckets)
	)
	done := make(chan struct{})
	sample := func(lastGC uint32) uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(int64(runtime.NumGoroutine()))
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapObjs.Set(int64(ms.HeapObjects))
		gcTotal.Set(int64(ms.NumGC))
		// PauseNs is a 256-entry ring indexed by GC number; fold in only
		// the pauses that completed since the previous sample.
		fresh := ms.NumGC - lastGC
		if fresh > uint32(len(ms.PauseNs)) {
			fresh = uint32(len(ms.PauseNs))
		}
		for i := uint32(0); i < fresh; i++ {
			gcPause.Observe(float64(ms.PauseNs[(ms.NumGC-i+255)%256]) / 1e6)
		}
		return ms.NumGC
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		// Seed with the current GC count so pre-existing pauses are not
		// replayed into the histogram, then publish the initial levels.
		var seed runtime.MemStats
		runtime.ReadMemStats(&seed)
		lastGC := sample(seed.NumGC)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				lastGC = sample(lastGC)
			}
		}
	}()
	return func() { cancel(); <-done }
}
