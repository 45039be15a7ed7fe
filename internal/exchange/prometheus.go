package exchange

import (
	"bufio"
	"io"
	"strconv"
)

// Prometheus text exposition (format 0.0.4), hand-rolled so the exchange
// stays dependency-free. Every metric is prefixed fmore_exchange_ and
// derives from the same atomics the JSON snapshot reads, so a scrape takes
// no lock in the exchange core at all — jobs_active walks the
// epoch-published job table behind one atomic load, never blocking (or
// blocked by) job churn. See doc.go for the full metric catalog.

// writePrometheus renders the exchange's metrics in the exposition format.
func writePrometheus(w io.Writer, ex *Exchange) error {
	return renderPrometheus(w, ex, ex.Metrics())
}

// renderPrometheus renders snapshot s (plus ex's partition identity and
// latency histogram, which no snapshot carries). Taking s as an argument is
// what lets TestMetricCatalogAgrees show that every snapshot field reaches
// the page.
func renderPrometheus(w io.Writer, ex *Exchange, s Snapshot) error {
	b := bufio.NewWriter(w)

	gauge := func(name, help string, v float64) {
		b.WriteString("# HELP fmore_exchange_" + name + " " + help + "\n")
		b.WriteString("# TYPE fmore_exchange_" + name + " gauge\n")
		b.WriteString("fmore_exchange_" + name + " " + formatFloat(v) + "\n")
	}
	counter := func(name, help string, v int64) {
		b.WriteString("# HELP fmore_exchange_" + name + " " + help + "\n")
		b.WriteString("# TYPE fmore_exchange_" + name + " counter\n")
		b.WriteString("fmore_exchange_" + name + " " + strconv.FormatInt(v, 10) + "\n")
	}

	gauge("uptime_seconds", "Seconds since the exchange started.", s.UptimeSec)
	gauge("jobs_active", "Hosted jobs currently accepting or scoring bids (derived from the live job map).", float64(s.JobsActive))
	counter("jobs_created_total", "Jobs created over this process lifetime (includes WAL-replayed creations).", s.JobsCreated)
	gauge("nodes_known", "Nodes in the shared registry.", float64(s.NodesKnown))
	counter("rounds_total", "Completed auction rounds.", s.RoundsTotal)
	counter("rounds_failed_total", "Rounds whose scoring or winner determination errored.", s.RoundsFailed)
	counter("idle_ticks_total", "Bid windows that expired below the round quorum.", s.IdleTicks)
	counter("bids_accepted_total", "Sealed bids admitted into a round.", s.BidsAccepted)
	counter("bids_rejected_total", "Bids refused (validation, policy, duplicate, closed job).", s.BidsRejected)
	counter("wal_snapshots_total", "Completed WAL compactions (snapshot + segment rotation).", s.WalSnapshots)
	counter("wal_snapshot_errors_total", "WAL compaction attempts that failed and will be retried.", s.WalSnapshotErrors)
	gauge("wal_snapshot_bytes", "Size of the last committed snapshot file; over the rotation threshold it is the compaction's write amplification.", float64(s.WalSnapshotBytes))
	gauge("wal_snapshot_seconds", "Wall time of the last completed WAL compaction.", s.WalSnapshotSeconds)
	gauge("wal_snapshot_stw_seconds", "Part of the last completed WAL compaction spent holding the stop-the-world locks (no round can close).", s.WalSnapshotStwSeconds)
	gauge("wal_segment_count", "Live WAL segments a restart would replay.", float64(s.WalSegmentCount))
	gauge("wal_bytes", "Logical bytes across live WAL segments (sealed plus active tail; preallocated-but-unwritten space is excluded).", float64(s.WalBytes))
	counter("wal_fsync_total", "Group commits (fsyncs) of the outcome log.", s.WalFsyncTotal)
	counter("wal_fsync_batched_records", "Records made durable by those group commits; the ratio to wal_fsync_total is the achieved batch size.", s.WalFsyncBatchedRecords)
	walFailed := 0.0
	if s.WalFailed {
		walFailed = 1
	}
	gauge("wal_failed", "1 after the outcome log's first sticky error (replica degraded, refusing durable writes), else 0.", walFailed)
	gauge("wal_last_error_unix", "Unix time of the outcome log's first sticky error, 0 while healthy.", float64(s.WalLastErrorUnix))
	counter("firehose_events_total", "Events published into the firehose tap since a sink first attached.", s.FirehoseEvents)
	counter("firehose_dropped_total", "Firehose events lost to ring overrun across all sinks.", s.FirehoseDropped)
	// Partition metrics appear only on a partitioned replica: an info-style
	// gauge carrying the partition as a label (constant 1, the idiomatic way
	// to join other series onto topology), the map version, and the
	// misroute counter.
	if p := ex.Partition(); p != nil {
		if m := p.Map.Load(); m != nil {
			b.WriteString("# HELP fmore_exchange_partition_id Partition served by this replica (info-style: constant 1, partition in the label).\n")
			b.WriteString("# TYPE fmore_exchange_partition_id gauge\n")
			b.WriteString(`fmore_exchange_partition_id{partition="` + p.Local + `"} 1` + "\n")
			gauge("partition_map_version", "Version of the cluster partition map this replica routes by.", float64(m.Version))
			counter("wrong_partition_total", "Job-scoped requests refused because the map places the job on another replica.", s.WrongPartition)
		}
	}
	// Admission metrics appear only when overload protection is installed:
	// sheds by scope on one labeled counter, SSE occupancy and evictions,
	// the in-flight gauge, and the boolean overload state health probers
	// read.
	if s.AdmissionEnabled {
		b.WriteString("# HELP fmore_exchange_admission_shed_total Requests shed by the admission controller, by limit scope.\n")
		b.WriteString("# TYPE fmore_exchange_admission_shed_total counter\n")
		for _, sc := range [...]struct {
			reason string
			v      int64
		}{
			{"global", s.AdmissionShedGlobal},
			{"node", s.AdmissionShedNode},
			{"job", s.AdmissionShedJob},
			{"inflight", s.AdmissionShedInflight},
		} {
			b.WriteString(`fmore_exchange_admission_shed_total{reason="` + sc.reason + `"} ` +
				strconv.FormatInt(sc.v, 10) + "\n")
		}
		counter("admission_sse_evicted_total", "SSE streams evicted (oldest first) to admit new subscribers at the cap.", s.AdmissionSSEEvicted)
		gauge("admission_inflight", "Bid-submit requests currently inside the in-flight gate.", float64(s.AdmissionInflight))
		gauge("admission_sse_active", "SSE streams currently registered with the admission controller.", float64(s.AdmissionSSEActive))
		overloaded := 0.0
		if s.AdmissionOverloaded {
			overloaded = 1
		}
		gauge("admission_overloaded", "1 while the exchange advertises overload on /v1/healthz, else 0.", overloaded)
	}
	gauge("round_latency_p50_seconds", "Median close-to-outcome latency over the sliding percentile window.", s.RoundLatencyP50Ms/1e3)
	gauge("round_latency_p99_seconds", "99th-percentile close-to-outcome latency over the sliding percentile window.", s.RoundLatencyP99Ms/1e3)

	// The cumulative round-latency histogram, bucketed at write time by
	// observeRound — a scrape only loads the bucket counters.
	cum, count, sumSec := ex.metrics.latencyHistogram()
	b.WriteString("# HELP fmore_exchange_round_latency_seconds Close-to-outcome latency of completed rounds.\n")
	b.WriteString("# TYPE fmore_exchange_round_latency_seconds histogram\n")
	for i, bound := range latencyBuckets {
		b.WriteString(`fmore_exchange_round_latency_seconds_bucket{le="` + formatFloat(bound) + `"} ` +
			strconv.FormatInt(cum[i], 10) + "\n")
	}
	b.WriteString(`fmore_exchange_round_latency_seconds_bucket{le="+Inf"} ` + strconv.FormatInt(count, 10) + "\n")
	b.WriteString("fmore_exchange_round_latency_seconds_sum " + formatFloat(sumSec) + "\n")
	b.WriteString("fmore_exchange_round_latency_seconds_count " + strconv.FormatInt(count, 10) + "\n")
	return b.Flush()
}

// formatFloat renders a float the way the exposition format expects:
// shortest exact decimal, no exponent surprises for the magnitudes the
// exchange produces.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
