package main

// metricDef is one metric the benchmark reports, as listed in
// BENCHMARK.json; Bound is the share of the parent's median by which an
// end-to-end metric may get worse before a change counts as a regression.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd are the metrics a plain run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"throughput_per_s", "1/s", "higher", 0.24},
	{"p50_ms", "ms", "lower", 0.24},
	{"tail_ms", "ms", "lower", 0.24},
	{"cold_start_s", "s", "lower", 0.24},
	{"warm_start_s", "s", "lower", 0.24},
	{"stp_err_pct", "%", "lower", 0.1},
	{"antt_err_pct", "%", "lower", 0.1},
}

// perLayer are the metrics a traced run prints, on every workload.
var perLayer = []metricDef{
	{"core.kernel_us", "us", "lower", 0},
	{"core.kernel_allocs", "count", "lower", 0},
	{"core.iterations_mean", "count", "lower", 0},
	{"engine.job_us", "us", "lower", 0},
	{"engine.overhead_us", "us", "lower", 0},
	{"engine.allocs_per_job", "count", "lower", 0},
	{"engine.queue_wait_us", "us", "lower", 0},
	{"engine.worker_speedup", "x", "higher", 0},
	{"engine.recording_computes", "count", "lower", 0},
	{"engine.profile_computes", "count", "lower", 0},
	{"engine.sim_computes", "count", "lower", 0},
	{"facade.eval_us", "us", "lower", 0},
	{"facade.overhead_us", "us", "lower", 0},
	{"facade.allocs_per_prediction", "count", "lower", 0},
	{"service.handler_single_us", "us", "lower", 0},
	{"service.handler_json_us_per_row", "us", "lower", 0},
	{"service.handler_ndjson_us_per_row", "us", "lower", 0},
	{"service.handler_wire_us_per_row", "us", "lower", 0},
	{"service.http_us", "us", "lower", 0},
	{"service.coalesced_ratio", "ratio", "higher", 0},
	{"service.non2xx", "count", "lower", 0},
	{"wire.encode_us_per_row", "us", "lower", 0},
	{"wire.decode_us_per_row", "us", "lower", 0},
	{"wire.bytes_per_row", "B", "lower", 0},
	{"fleet.overhead_us_per_row", "us", "lower", 0},
	{"fleet.first_row_ms", "ms", "lower", 0},
	{"fleet.shards", "count", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.merge_stall_ms", "ms", "lower", 0},
	{"sim.record_ms", "ms", "lower", 0},
	{"sim.replay_ms", "ms", "lower", 0},
	{"sim.llc_stream_pct", "%", "lower", 0},
	{"sim.multicore_ms", "ms", "lower", 0},
	{"store.save_ms", "ms", "lower", 0},
	{"store.load_ms", "ms", "lower", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.saves", "count", "lower", 0},
	{"store.rejects", "count", "lower", 0},
	{"store.hit_ratio", "ratio", "higher", 0},
	{"store.disk_bytes", "B", "lower", 0},
	{"store.peer_bytes", "B", "lower", 0},
	{"store.peer_start_ms", "ms", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.spans_per_request", "count", "lower", 0},
	{"obs.spans_dropped", "count", "lower", 0},
	{"obs.engine_span_coverage_pct", "%", "higher", 0},
	{"runtime.alloc_mb_per_s", "MB/s", "lower", 0},
	{"runtime.gc_cycles_per_s", "1/s", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"failed_ratio", "ratio", "lower", 0},
}
