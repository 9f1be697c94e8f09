package obs

import (
	"math"
	"runtime/metrics"

	"sftree/internal/graph"
	"sftree/internal/mod"
	"sftree/internal/nfv"
)

// RegisterCacheStats wires the process-global cache and pool counters
// into the registry as callback gauges, evaluated at every /metrics
// scrape:
//
//	metric_cache_hits / metric_cache_misses / metric_cache_hit_rate
//	    nfv.Network.Metric generation cache (APSP closure reuse)
//	scaffold_cache_hits / scaffold_cache_misses / scaffold_cache_hit_rate
//	    mod.Cache signature-keyed MOD-overlay scaffolds (stage-one
//	    construction skipped on same-signature, same-deployment solves)
//	sp_pool_gets / sp_pool_news / sp_pool_reuse_rate
//	    graph shortest-path scratch arenas (sync.Pool)
//
// Hit and reuse rates are fractions in [0,1]; they read 0 until the
// first lookup. What a solve reads of the MOD overlay and the KMB
// sweep reaches the registry through its events (NewMetricsObserver).
func RegisterCacheStats(reg *Registry) {
	reg.GaugeFunc("metric_cache_hits", func() float64 { h, _ := nfv.MetricCacheStats(); return float64(h) })
	reg.GaugeFunc("metric_cache_misses", func() float64 { _, m := nfv.MetricCacheStats(); return float64(m) })
	reg.GaugeFunc("metric_cache_hit_rate", func() float64 {
		h, m := nfv.MetricCacheStats()
		return ratio(h, h+m)
	})
	reg.GaugeFunc("scaffold_cache_hits", func() float64 { h, _ := mod.CacheStats(); return float64(h) })
	reg.GaugeFunc("scaffold_cache_misses", func() float64 { _, m := mod.CacheStats(); return float64(m) })
	reg.GaugeFunc("scaffold_cache_hit_rate", func() float64 {
		h, m := mod.CacheStats()
		return ratio(h, h+m)
	})
	reg.GaugeFunc("sp_pool_gets", func() float64 { g, _ := graph.PoolStats(); return float64(g) })
	reg.GaugeFunc("sp_pool_news", func() float64 { _, n := graph.PoolStats(); return float64(n) })
	reg.GaugeFunc("sp_pool_reuse_rate", func() float64 {
		g, n := graph.PoolStats()
		return ratio(g-n, g)
	})
}

// ratio is hit/total, 0 before the first lookup.
func ratio(hit, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// runtimeTotals are the cumulative runtime/metrics samples
// RegisterRuntimeStats exposes as callback gauges, and runtimeLevels
// the levels it exposes as integer gauges, by metric name.
var (
	runtimeTotals = map[string]string{
		"runtime_gc_cpu_seconds_total": "/cpu/classes/gc/total:cpu-seconds",
		"runtime_alloc_bytes_total":    "/gc/heap/allocs:bytes",
		"runtime_gc_cycles_total":      "/gc/cycles/total:gc-cycles",
	}
	runtimeLevels = map[string]string{
		"runtime_goroutines":       "/sched/goroutines:goroutines",
		"runtime_heap_alloc_bytes": "/memory/classes/heap/objects:bytes",
		"runtime_heap_objects":     "/gc/heap/objects:objects",
	}
	// gcPauseQuantiles are the GC pause figures, in milliseconds, over
	// every stop-the-world pause the collector has taken.
	gcPauseQuantiles = map[string]float64{
		"runtime_gc_pause_p50_ms": 0.50,
		"runtime_gc_pause_p99_ms": 0.99,
		"runtime_gc_pause_max_ms": 1,
	}
)

// RegisterRuntimeStats exposes the Go runtime through readers of
// runtime/metrics, evaluated at every scrape, so no goroutine samples
// it and nothing stops the world to read it. Callback gauges carry the
// collector's cumulative cost: runtime_gc_cpu_seconds_total (the
// runtime's estimate of CPU time spent collecting, updated as cycles
// complete), runtime_alloc_bytes_total (bytes ever allocated on the
// heap) and runtime_gc_cycles_total (completed cycles), whose rates
// are what an allocation change moves; and the pause quantiles
// runtime_gc_pause_{p50,p99,max}_ms. Integer gauges carry the levels
// runtime_goroutines, runtime_heap_alloc_bytes (bytes in live and
// not-yet-swept heap objects) and runtime_heap_objects.
func RegisterRuntimeStats(reg *Registry) {
	for gauge, name := range runtimeTotals {
		reg.GaugeFunc(gauge, func() float64 { return runtimeNumber(readRuntime(name)) })
	}
	for gauge, name := range runtimeLevels {
		reg.IntGaugeFunc(gauge, func() int64 { return int64(runtimeNumber(readRuntime(name))) })
	}
	for gauge, q := range gcPauseQuantiles {
		reg.GaugeFunc(gauge, func() float64 { return gcPause(q) })
	}
}

// readRuntime reads one runtime/metrics sample.
func readRuntime(name string) metrics.Value {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value
}

// runtimeNumber is a scalar sample's value, 0 for any other kind (a
// name this runtime does not support reads KindBad).
func runtimeNumber(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// gcPause is the q-quantile of the process's GC pauses in
// milliseconds: the upper bound of the runtime histogram bucket that
// holds the rank (its lower bound when the bucket is open-ended), 0
// before the first pause.
func gcPause(q float64) float64 {
	v := readRuntime("/sched/pauses/total/gc:seconds")
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for i, c := range h.Counts {
		if cum += c; cum >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi * 1e3
			}
			return h.Buckets[i] * 1e3
		}
	}
	return 0
}
