package main

// metricDef describes one reported metric. BENCHMARK.json carries name, unit,
// better and (end to end) bound, which is all its contract allows; layer and
// moves — which end-to-end metric, on which workload, the metric is expected
// to move — live here and in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Layer  string
	Moves  string
}

// endToEnd is emitted by every workload on an untraced run. Each workload's
// "query" is its read operation; op_mean95_us, the mean of the fastest 95% of
// all operations, also counts the writes of serve_mixed, so a write
// regression shows in a gated number. Both are medians over the run's
// sixteen windows of the window's own median or trimmed mean, and, like
// setup_s, are in reference time (hostclock.go) wherever the measured work is
// computation on the measuring goroutine; the HTTP round trips of serve_*,
// which mostly wait, are in wall time. Only statistics that a few long pauses
// cannot move are gated: the shared host behind this box changes a core's
// speed by a third from one second to the next, under which p99, plain mean
// and throughput of the same binary differ by 20% to 100% between runs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "op_mean95_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// perLayer is emitted by every workload on a traced run. A metric has a time
// unit only when every workload measures it; a layer that only some
// workloads run is reported as a share of the operation's latency, a ratio,
// a rate or a count, where 0 says the layer is not in this workload.
var perLayer = []metricDef{
	// Moved here from the end-to-end list under their own names: user-visible
	// but not steady enough on this box to carry a bound.
	{Name: "query_p99_us", Unit: "us", Better: "lower", Layer: "end-to-end", Moves: "itself: the read tail, with at least ten samples beyond it per window"},
	{Name: "op_mean_us", Unit: "us", Better: "lower", Layer: "end-to-end", Moves: "itself: the paper's average query time, stalls included"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Layer: "end-to-end", Moves: "itself: operations per second of the closed loop"},

	{Name: "floodsql.parse_frac", Unit: "frac", Better: "lower", Layer: "floodsql", Moves: "query_p50_us on lookup_sql (large share), serve_* (small); 0 on olap_*"},

	{Name: "flood.call_us", Unit: "us", Better: "lower", Layer: "flood", Moves: "query_p50_us on lookup_sql, olap_sharded"},
	{Name: "flood.facade_us", Unit: "us", Better: "lower", Layer: "flood", Moves: "query_p50_us on lookup_sql, olap_sharded; the facade collapse must hold it"},
	{Name: "flood.rows_decode_frac", Unit: "frac", Better: "lower", Layer: "flood", Moves: "query_p50_us on lookup_sql"},
	{Name: "flood.rows_per_select", Unit: "count", Better: "lower", Layer: "flood", Moves: "scales flood.rows_decode_frac on lookup_sql"},
	{Name: "flood.allocs_per_query", Unit: "count", Better: "lower", Layer: "flood", Moves: "query_p99_us on olap_flat; query_p50_us on lookup_sql"},
	{Name: "flood.index_bytes_per_row", Unit: "B", Better: "lower", Layer: "flood", Moves: "heap_mb everywhere"},

	{Name: "core.project_us", Unit: "us", Better: "lower", Layer: "core", Moves: "query_p50_us on lookup_sql"},
	{Name: "core.refine_us", Unit: "us", Better: "lower", Layer: "core", Moves: "query_p50_us on lookup_sql"},
	{Name: "core.index_frac", Unit: "frac", Better: "lower", Layer: "core", Moves: "query_p50_us on lookup_sql; at most 0.4 on olap_flat"},
	{Name: "core.cells_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "core.project_us"},
	{Name: "core.ranges_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "query.scan_us"},
	{Name: "core.refined_per_query", Unit: "count", Better: "lower", Layer: "core", Moves: "core.refine_us"},
	{Name: "core.build_mrows_per_s", Unit: "Mrows/s", Better: "higher", Layer: "core", Moves: "setup_s on learn_build"},

	{Name: "query.scan_us", Unit: "us", Better: "lower", Layer: "query", Moves: "query_p50_us, queries_per_s on olap_flat, olap_sharded; no change on lookup_sql"},
	{Name: "query.scan_frac", Unit: "frac", Better: "lower", Layer: "query", Moves: "at least 0.6 on olap_flat, at most 0.3 on lookup_sql"},
	{Name: "query.scanned_per_query", Unit: "count", Better: "lower", Layer: "query", Moves: "query.scan_us; repeats exactly"},
	{Name: "query.matched_per_query", Unit: "count", Better: "lower", Layer: "query", Moves: "fixed by the workload; repeats exactly"},
	{Name: "query.scan_overhead", Unit: "x", Better: "lower", Layer: "query", Moves: "query.scan_us on olap_*"},
	{Name: "query.ns_per_scanned_row", Unit: "ns", Better: "lower", Layer: "query", Moves: "query_p50_us on olap_flat"},
	{Name: "query.exact_frac", Unit: "frac", Better: "higher", Layer: "query", Moves: "query.ns_per_scanned_row"},

	{Name: "colstore.table_bytes_per_row", Unit: "B", Better: "lower", Layer: "colstore", Moves: "heap_mb"},
	{Name: "colstore.decode_mrows_per_s", Unit: "Mrows/s", Better: "higher", Layer: "colstore", Moves: "query.ns_per_scanned_row on olap_flat"},

	{Name: "shard.visited_per_query", Unit: "count", Better: "lower", Layer: "shard", Moves: "query_p50_us on olap_sharded"},
	{Name: "shard.single_frac", Unit: "frac", Better: "higher", Layer: "shard", Moves: "in [0.3, 0.6] on olap_sharded by construction"},
	{Name: "shard.skew", Unit: "x", Better: "lower", Layer: "shard", Moves: "query_p99_us on olap_sharded"},
	{Name: "shard.fanout_over_single_p50", Unit: "x", Better: "lower", Layer: "shard", Moves: "query_p99_us on olap_sharded"},
	{Name: "shard.single_over_flat", Unit: "x", Better: "lower", Layer: "shard", Moves: "query_p50_us on olap_sharded; docs/SHARDING.md says at most 1.1"},

	{Name: "server.queue_frac", Unit: "frac", Better: "lower", Layer: "server", Moves: "query_p99_us on serve_*"},
	{Name: "server.service_frac", Unit: "frac", Better: "lower", Layer: "server", Moves: "query_p50_us on serve_read (cold class)"},
	{Name: "server.transport_frac", Unit: "frac", Better: "lower", Layer: "server", Moves: "server.hot_over_cold_p50, query_p50_us on serve_*"},
	{Name: "server.hot_over_cold_p50", Unit: "x", Better: "lower", Layer: "server", Moves: "op_mean_us on serve_read (the cached half)"},
	{Name: "server.cache_hit_frac.hot", Unit: "frac", Better: "higher", Layer: "server", Moves: "at least 0.7 on serve_read"},
	{Name: "server.cache_hit_frac.cold", Unit: "frac", Better: "higher", Layer: "server", Moves: "at most 0.05 on serve_read"},
	{Name: "server.avg_batch", Unit: "count", Better: "higher", Layer: "server", Moves: "query_p50_us on serve_* under more connections"},
	{Name: "server.max_batch", Unit: "count", Better: "higher", Layer: "server", Moves: "query_p50_us on serve_* under more connections"},
	{Name: "server.shed", Unit: "count", Better: "lower", Layer: "server", Moves: "failed"},
	{Name: "server.timeouts", Unit: "count", Better: "lower", Layer: "server", Moves: "failed"},
	{Name: "server.errors", Unit: "count", Better: "lower", Layer: "server", Moves: "failed"},

	{Name: "write_over_read_p50", Unit: "x", Better: "lower", Layer: "wal", Moves: "op_mean_us on serve_mixed"},
	{Name: "write_p90_over_p50", Unit: "x", Better: "lower", Layer: "wal", Moves: "op_mean_us on serve_mixed"},
	{Name: "wal.bytes_per_row", Unit: "B", Better: "lower", Layer: "wal", Moves: "write_over_read_p50 on serve_mixed"},
	{Name: "durable.checkpoint_frac", Unit: "frac", Better: "lower", Layer: "durable", Moves: "query_p99_us, op_mean_us on serve_mixed"},
	{Name: "durable.snapshot_bytes_per_row", Unit: "B", Better: "lower", Layer: "durable", Moves: "durable.checkpoint_frac, durable.recover_mrows_per_s"},
	{Name: "durable.replayed_records", Unit: "count", Better: "lower", Layer: "durable", Moves: "durable.recover_mrows_per_s"},
	{Name: "durable.recover_mrows_per_s", Unit: "Mrows/s", Better: "higher", Layer: "durable", Moves: "restart time after serve_mixed"},
	{Name: "adaptive.merge_frac", Unit: "frac", Better: "lower", Layer: "adaptive", Moves: "query_p99_us, op_mean_us on serve_mixed"},
	{Name: "adaptive.pending_rows_peak", Unit: "count", Better: "lower", Layer: "adaptive", Moves: "query_p50_us on serve_mixed (side-log scan)"},
	{Name: "adaptive.merges", Unit: "count", Better: "lower", Layer: "adaptive", Moves: "must equal 3 on serve_mixed"},
	{Name: "adaptive.relearns", Unit: "count", Better: "lower", Layer: "adaptive", Moves: "must equal 0 everywhere"},

	{Name: "costmodel.calibrate_frac", Unit: "frac", Better: "lower", Layer: "costmodel", Moves: "setup_s on learn_build"},
	{Name: "optimizer.search_frac", Unit: "frac", Better: "lower", Layer: "optimizer", Moves: "setup_s on learn_build and, through Build, everywhere"},
	{Name: "core.build_frac", Unit: "frac", Better: "lower", Layer: "core", Moves: "setup_s on learn_build"},
	{Name: "optimizer.predicted_over_measured", Unit: "x", Better: "lower", Layer: "optimizer", Moves: "cost-model accuracy (paper section 4); 1 is exact"},
	{Name: "optimizer.live_over_frozen_scanned", Unit: "x", Better: "lower", Layer: "optimizer", Moves: "layout quality under live against frozen calibration on learn_build"},

	{Name: "baseline.fullscan_over_flood", Unit: "x", Better: "higher", Layer: "baseline", Moves: "the paper's comparison beside query_p50_us on olap_flat"},
	{Name: "baseline.best_over_flood", Unit: "x", Better: "higher", Layer: "baseline", Moves: "the paper's comparison beside query_p50_us on olap_flat"},

	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Layer: "trace", Moves: "traced against untraced query_p50_us"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace", Moves: "trace.overhead_frac"},

	{Name: "host.clock_rate", Unit: "x", Better: "higher", Layer: "harness", Moves: "nothing: reference seconds per wall second of the run (hostclock.go), the host's speed the reported times are already corrected for"},
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"olap_flat", "TPC-H 0.1% range aggregates on a flat index, one closed-loop caller: the scan kernel and colstore do the work, parser, server and WAL none", runOlapFlat},
	{"lookup_sql", "SQL point and small-range lookups decoded row by row: parse, project, refine and row decode dominate, the scan kernel does little", runLookupSQL},
	{"olap_sharded", "sales aggregates on 4 shards, 40% pruned to one shard and the rest fanned out: router, delegation and merge, which the flat path skips", runOlapSharded},
	{"serve_read", "HTTP, two closed-loop callers, half the requests from 256 statements that fit the 1024-entry result cache and half from 262144 that do not", runServeRead},
	{"serve_mixed", "same server over a durable store with 20% logged writes and three forced merge+checkpoint cycles, then crash recovery with every acked write checked", runServeMixed},
	{"learn_build", "live calibrate, layout search and build on four datasets: the only workload where costmodel, optimizer and core.Build do the work", runLearnBuild},
}
