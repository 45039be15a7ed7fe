package main

// runSeconds is how long the driver lets one run measure.
const runSeconds = 25

// metricDef declares one reported metric. bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// is rejected; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, so each is defined on all four workloads; readings that only
// some workloads have (recovery time, sync lag, WAL bytes, read latency,
// direct-routing throughput) are per-layer metrics below. The timed ones
// are reported at reference host speed (see rec.go): the shared host this
// runs on changes speed by the second, and by more than any bound.
var endToEnd = []metricDef{
	// Accepted bids of the closed loop over its length, stalls included.
	{"bids_per_s", "1/s", "higher", 0.25},
	// One bid of the closed loop, send to answer.
	{"submit_p50_ms", "ms", "lower", 0.25},
	// One round close, request to outcome.
	{"close_p50_ms", "ms", "lower", 0.25},
	// Sum of VmHWM over the processes under test.
	{"peak_rss_mb", "MiB", "lower", 0.15},
	// Spawn/Open to first timed operation: jobs, registration, strategy
	// solve and fetch, warm-up; median of the run's set-ups, build excluded.
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports: the ladder's rungs (layer =
// module name) and the workload-specific end-to-end readings.
var perLayer = []metricDef{
	{"auction.score_ns", "ns", "lower", 0},
	{"auction.select_small_ns", "ns", "lower", 0},
	{"auction.select_large_ns", "ns", "lower", 0},
	{"auction.solve_ms", "ms", "lower", 0},
	{"admission.admit_ns", "ns", "lower", 0},
	{"partition.owner_ns", "ns", "lower", 0},
	{"exchange.submit_ns", "ns", "lower", 0},
	{"exchange.submit_admitted_ns", "ns", "lower", 0},
	{"exchange.submit_contended_ns", "ns", "lower", 0},
	{"exchange.close_small_ns", "ns", "lower", 0},
	{"exchange.close_large_ns", "ns", "lower", 0},
	{"exchange.submit_allocs", "count", "lower", 0},
	{"exchange.close_allocs", "count", "lower", 0},
	{"exchange.wal.append_ns", "ns", "lower", 0},
	{"exchange.wal.sync_ns", "ns", "lower", 0},
	{"exchange.wal.records_per_fsync", "count", "higher", 0},
	{"exchange.wal.fsyncs_per_round", "count", "lower", 0},
	{"exchange.wal.syscw_per_round", "count", "lower", 0},
	{"exchange.wal.compact_ms", "ms", "lower", 0},
	{"exchange.wal.snapshots", "count", "lower", 0},
	{"exchange.wal.close_p999_ms", "ms", "lower", 0},
	{"exchange.wal.replay_records_per_s", "1/s", "higher", 0},
	{"analytics.tap_ns_per_event", "ns", "lower", 0},
	{"exchange.http.submit_ns", "ns", "lower", 0},
	{"exchange.http.submit_idem_ns", "ns", "lower", 0},
	{"exchange.http.close_ns", "ns", "lower", 0},
	{"exchange.http.outcome_ns", "ns", "lower", 0},
	{"exchange.http.submit_allocs", "count", "lower", 0},
	{"exchange.http.submit_bytes", "B", "lower", 0},
	{"nethttp.roundtrip_ns", "ns", "lower", 0},
	{"client.submit_ns", "ns", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"router.forward_ms", "ms", "lower", 0},
	{"router.cpu_share", "ratio", "lower", 0},
	{"process.server_cpu_share", "ratio", "lower", 0},
	{"process.generator_cpu_share", "ratio", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"host.ref_kernel_ns", "ns", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"budget.rung_sum_us", "us", "lower", 0},
	{"budget.edge_bid_us", "us", "lower", 0},
	// End-to-end readings only some workloads have.
	{"rounds_per_s", "1/s", "higher", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"direct_ops_per_s", "1/s", "higher", 0},
	{"open_submit_p50_ms", "ms", "lower", 0},
	{"open_close_p50_ms", "ms", "lower", 0},
	{"submit_p99_ms", "ms", "lower", 0},
	{"close_p99_ms", "ms", "lower", 0},
	{"read_p50_ms", "ms", "lower", 0},
	{"sync_p50_ms", "ms", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"wal_bytes_per_round", "B", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
}
