package main

// layerDef is one per-layer row of BENCHMARK.json and metricDef one
// end-to-end row, which also carries its regression bound. The tables
// below are the single list the program reports from; a unit test holds
// BENCHMARK.json to them.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type metricDef struct {
	layerDef
	Bound float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them; what each means per workload is in
// README.md. Bounds are shares of the parent's median. The timing
// bounds sit at the contract's cap because the box does: identical
// inputs run minutes apart differed by up to 20 % (README.md,
// "Hardware"). Tail latency and cold-start time are measured too but
// not gated: their own scatter on top of that drift left no room under
// the cap, so they are reported with the per-layer metrics.
var endToEnd = []metricDef{
	{layerDef{"setup_s", "s", lower}, 0.25},
	{layerDef{"ops_per_s", "1/s", higher}, 0.25},
	{layerDef{"op_p50_ms", "ms", lower}, 0.25},
	{layerDef{"cost_mean", "cost", lower}, 0.06},
}

// perLayer are the single-layer numbers of the traced run; layer =
// module name. A layer that is not on a workload's path reports 0
// there, which is itself the ledger's statement about that workload.
var perLayer = []layerDef{
	{"graph.apsp_ms", "ms", lower},
	{"graph.dijkstra_us", "us", lower},
	{"graph.pool_reuse", "ratio", higher},

	{"nfv.clone_us", "us", lower},
	{"nfv.validate_us", "us", lower},
	{"nfv.metric_cache_hit", "ratio", higher},

	{"mod.build_us", "us", lower},
	{"mod.solve_sfc_us", "us", lower},
	{"mod.overlay_arcs", "count", lower},
	{"mod.cache_hit", "ratio", higher},

	{"steiner.kmb_us", "us", lower},
	{"steiner.kmb_share", "ratio", lower},

	{"core.solve_ms", "ms", lower},
	{"core.stage1_ms", "ms", lower},
	{"core.stage2_ms", "ms", lower},
	{"core.sweep_self_ms", "ms", lower},
	{"core.candidates_per_solve", "count", lower},
	{"core.opa_ms", "ms", lower},
	{"core.opa_moves_proposed", "count", higher},
	{"core.opa_moves_accepted", "count", higher},
	{"core.allocs_per_solve", "count", lower},
	{"core.kb_per_solve", "kB", lower},
	{"core.journal_pool_reuse", "ratio", higher},

	{"dynamic.admit_us", "us", lower},
	{"dynamic.commit_self_us", "us", lower},
	{"dynamic.release_us", "us", lower},
	{"dynamic.rebase_ms", "ms", lower},
	{"dynamic.checkpoint_ms", "ms", lower},
	{"dynamic.restore_replay_ms", "ms", lower},
	{"dynamic.replayed_records", "count", lower},
	{"dynamic.conflicts", "count", lower},
	{"dynamic.retries", "count", lower},
	{"dynamic.serialized_fallbacks", "count", lower},
	{"dynamic.coalesced_share", "ratio", higher},

	{"queue.wait_p50_ms", "ms", lower},
	{"queue.solve_p50_ms", "ms", lower},
	{"queue.done_lag_p50_ms", "ms", lower},
	{"queue.batch_size_mean", "count", higher},
	{"queue.overflow", "count", lower},
	{"queue.expired", "count", lower},

	{"wal.append_sync_us", "us", lower},
	{"wal.append_nosync_us", "us", lower},
	{"wal.bytes_per_record", "B", lower},
	{"wal.syncs_per_commit", "count", lower},
	{"wal.snapshot_ms", "ms", lower},
	{"wal.open_ms", "ms", lower},

	{"server.http_self_us", "us", lower},
	{"server.encode_us", "us", lower},
	{"server.decode_us", "us", lower},
	{"server.healthz_us", "us", lower},
	{"server.status_2xx", "count", higher},
	{"server.status_409", "count", lower},
	{"server.status_429", "count", lower},
	{"server.status_5xx", "count", lower},

	{"e2e.cold_start_ms", "ms", lower},
	{"e2e.op_p90_ms", "ms", lower},
	{"e2e.op_p99_ms", "ms", lower},
	{"e2e.release_p50_ms", "ms", lower},
	{"e2e.fail_share", "ratio", lower},

	{"gen.late_p99_ms", "ms", lower},
	{"gen.fifo_wait_p99_ms", "ms", lower},
	{"proc.cpu_util", "ratio", higher},
	{"proc.alloc_kb_per_op", "kB", lower},
	{"proc.gc_pause_ms", "ms", lower},

	{"share.graph", "ratio", lower},
	{"share.nfv", "ratio", lower},
	{"share.mod", "ratio", lower},
	{"share.steiner", "ratio", lower},
	{"share.core", "ratio", lower},
	{"share.dynamic", "ratio", lower},
	{"share.queue", "ratio", lower},
	{"share.wal", "ratio", lower},
	{"share.server", "ratio", lower},
	{"trace.coverage", "ratio", higher},
	{"obs.trace_overhead_pct", "%", lower},

	// What the reference clock read while the run lasted (ref.go): the
	// machine, not the program.
	{"ref.unit_us", "us", lower},
	{"ref.speed", "ratio", higher},
	{"ref.speed_min", "ratio", higher},
}

// shareLayers are the modules whose self-time shares the ledger prints.
var shareLayers = []string{"graph", "nfv", "mod", "steiner", "core", "dynamic", "queue", "wal", "server"}
