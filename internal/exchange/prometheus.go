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

// scrape is what one page is rendered from: a snapshot, plus the partition
// identity no snapshot carries.
type scrape struct {
	Snapshot
	partitioned bool // the replica serves a partition and has a cluster map
	partition   string
	mapVersion  int64
}

// metricRow declares one sample line of the page. Consecutive rows with the
// same name are one family (HELP and TYPE are written once, from the first);
// a counter is rendered as an integer, a gauge as the shortest exact decimal.
type metricRow struct {
	name    string
	help    string
	counter bool
	when    func(*scrape) bool   // nil: on every page
	label   func(*scrape) string // nil: unlabeled
	value   func(*scrape) float64
}

// Partition families appear only on a partitioned replica, admission
// families only when overload protection is installed.
func partitioned(p *scrape) bool { return p.partitioned }
func admitting(p *scrape) bool   { return p.AdmissionEnabled }

func reason(scope string) func(*scrape) string {
	return func(*scrape) string { return `reason="` + scope + `"` }
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricCatalog is the page, in page order, up to the latency histogram
// (which keeps its own writer below). TestMetricCatalogAgrees holds it
// against api.Metrics and the table in doc.go; TestPrometheusGoldenPages
// pins the bytes.
var metricCatalog = []metricRow{
	{name: "uptime_seconds", help: "Seconds since the exchange started.", value: func(p *scrape) float64 { return p.UptimeSec }},
	{name: "jobs_active", help: "Hosted jobs currently accepting or scoring bids (derived from the live job map).", value: func(p *scrape) float64 { return float64(p.JobsActive) }},
	{name: "jobs_created_total", help: "Jobs created over this process lifetime (includes WAL-replayed creations).", counter: true, value: func(p *scrape) float64 { return float64(p.JobsCreated) }},
	{name: "nodes_known", help: "Nodes in the shared registry.", value: func(p *scrape) float64 { return float64(p.NodesKnown) }},
	{name: "rounds_total", help: "Completed auction rounds.", counter: true, value: func(p *scrape) float64 { return float64(p.RoundsTotal) }},
	{name: "rounds_failed_total", help: "Rounds whose scoring or winner determination errored.", counter: true, value: func(p *scrape) float64 { return float64(p.RoundsFailed) }},
	{name: "idle_ticks_total", help: "Bid windows that expired below the round quorum.", counter: true, value: func(p *scrape) float64 { return float64(p.IdleTicks) }},
	{name: "bids_accepted_total", help: "Sealed bids admitted into a round.", counter: true, value: func(p *scrape) float64 { return float64(p.BidsAccepted) }},
	{name: "bids_rejected_total", help: "Bids refused (validation, policy, duplicate, closed job).", counter: true, value: func(p *scrape) float64 { return float64(p.BidsRejected) }},
	{name: "wal_snapshots_total", help: "Completed WAL compactions (snapshot + segment rotation).", counter: true, value: func(p *scrape) float64 { return float64(p.WalSnapshots) }},
	{name: "wal_snapshot_errors_total", help: "WAL compaction attempts that failed and will be retried.", counter: true, value: func(p *scrape) float64 { return float64(p.WalSnapshotErrors) }},
	{name: "wal_snapshot_bytes", help: "Size of the last committed snapshot file; the log compacts again once its active segment reaches twice this, or the snapshot-bytes floor if larger.", value: func(p *scrape) float64 { return float64(p.WalSnapshotBytes) }},
	{name: "wal_snapshot_seconds", help: "Wall time of the last completed WAL compaction.", value: func(p *scrape) float64 { return p.WalSnapshotSeconds }},
	{name: "wal_snapshot_stw_seconds", help: "Part of the last completed WAL compaction spent holding the stop-the-world locks (no round can close).", value: func(p *scrape) float64 { return p.WalSnapshotStwSeconds }},
	{name: "wal_segment_count", help: "Live WAL segments a restart would replay.", value: func(p *scrape) float64 { return float64(p.WalSegmentCount) }},
	{name: "wal_bytes", help: "Logical bytes across live WAL segments (sealed plus active tail; preallocated-but-unwritten space is excluded).", value: func(p *scrape) float64 { return float64(p.WalBytes) }},
	{name: "wal_fsync_total", help: "Group commits (fsyncs) of the outcome log.", counter: true, value: func(p *scrape) float64 { return float64(p.WalFsyncTotal) }},
	{name: "wal_fsync_batched_records", help: "Records made durable by those group commits; the ratio to wal_fsync_total is the achieved batch size.", counter: true, value: func(p *scrape) float64 { return float64(p.WalFsyncBatchedRecords) }},
	{name: "wal_failed", help: "1 after the outcome log's first sticky error (replica degraded, refusing durable writes), else 0.", value: func(p *scrape) float64 { return oneIf(p.WalFailed) }},
	{name: "wal_last_error_unix", help: "Unix time of the outcome log's first sticky error, 0 while healthy.", value: func(p *scrape) float64 { return float64(p.WalLastErrorUnix) }},
	// HELP texts are pinned with the page (testdata/prometheus): the
	// "ring overrun" of the dropped row is a whole round the tap's full
	// queue refused.
	{name: "firehose_events_total", help: "Events published into the firehose tap since a sink first attached.", counter: true, value: func(p *scrape) float64 { return float64(p.FirehoseEvents) }},
	{name: "firehose_dropped_total", help: "Firehose events of whole rounds the tap's full queue refused.", counter: true, value: func(p *scrape) float64 { return float64(p.FirehoseDropped) }},
	// partition_id is info-style: constant 1 with the partition as a label,
	// the idiomatic way to join other series onto topology.
	{name: "partition_id", help: "Partition served by this replica (info-style: constant 1, partition in the label).", when: partitioned,
		label: func(p *scrape) string { return `partition="` + p.partition + `"` }, value: func(*scrape) float64 { return 1 }},
	{name: "partition_map_version", help: "Version of the cluster partition map this replica routes by.", when: partitioned, value: func(p *scrape) float64 { return float64(p.mapVersion) }},
	{name: "wrong_partition_total", help: "Job-scoped requests refused because the map places the job on another replica.", counter: true, when: partitioned, value: func(p *scrape) float64 { return float64(p.WrongPartition) }},
	{name: "admission_shed_total", help: "Requests shed by the admission controller, by limit scope.", counter: true, when: admitting, label: reason("global"), value: func(p *scrape) float64 { return float64(p.AdmissionShedGlobal) }},
	{name: "admission_shed_total", counter: true, when: admitting, label: reason("node"), value: func(p *scrape) float64 { return float64(p.AdmissionShedNode) }},
	{name: "admission_shed_total", counter: true, when: admitting, label: reason("job"), value: func(p *scrape) float64 { return float64(p.AdmissionShedJob) }},
	{name: "admission_shed_total", counter: true, when: admitting, label: reason("inflight"), value: func(p *scrape) float64 { return float64(p.AdmissionShedInflight) }},
	{name: "admission_sse_evicted_total", help: "SSE streams evicted (oldest first) to admit new subscribers at the cap.", counter: true, when: admitting, value: func(p *scrape) float64 { return float64(p.AdmissionSSEEvicted) }},
	{name: "admission_inflight", help: "Bid-submit requests currently inside the in-flight gate.", when: admitting, value: func(p *scrape) float64 { return float64(p.AdmissionInflight) }},
	{name: "admission_sse_active", help: "SSE streams currently registered with the admission controller.", when: admitting, value: func(p *scrape) float64 { return float64(p.AdmissionSSEActive) }},
	{name: "admission_overloaded", help: "1 while the exchange advertises overload on /v1/healthz, else 0.", when: admitting, value: func(p *scrape) float64 { return oneIf(p.AdmissionOverloaded) }},
	{name: "round_latency_p50_seconds", help: "Median close-to-outcome latency since start.", value: func(p *scrape) float64 { return p.RoundLatencyP50Ms / 1e3 }},
	{name: "round_latency_p99_seconds", help: "99th-percentile close-to-outcome latency since start.", value: func(p *scrape) float64 { return p.RoundLatencyP99Ms / 1e3 }},
}

// renderPrometheus renders snapshot s (plus ex's partition identity and
// latency histogram, which no snapshot carries). Taking s as an argument is
// what lets TestMetricCatalogAgrees show that every snapshot field reaches
// the page.
func renderPrometheus(w io.Writer, ex *Exchange, s Snapshot) error {
	b := bufio.NewWriter(w)
	p := scrape{Snapshot: s}
	if m := ex.PartitionMap(); m != nil {
		p.partitioned, p.partition, p.mapVersion = true, ex.part.Local, m.Version
	}
	family := ""
	for _, row := range metricCatalog {
		if row.when != nil && !row.when(&p) {
			continue
		}
		v := row.value(&p)
		typ, text := "gauge", formatFloat(v)
		if row.counter {
			typ, text = "counter", strconv.FormatInt(int64(v), 10)
		}
		if row.name != family {
			family = row.name
			b.WriteString("# HELP fmore_exchange_" + row.name + " " + row.help + "\n")
			b.WriteString("# TYPE fmore_exchange_" + row.name + " " + typ + "\n")
		}
		labels := ""
		if row.label != nil {
			labels = "{" + row.label(&p) + "}"
		}
		b.WriteString("fmore_exchange_" + row.name + labels + " " + text + "\n")
	}

	// The cumulative round-latency histogram. The le counts are loaded
	// before the count, so +Inf is at least each of them (internal/hist).
	lat := &ex.metrics.closeLat
	b.WriteString("# HELP fmore_exchange_round_latency_seconds Close-to-outcome latency of completed rounds.\n")
	b.WriteString("# TYPE fmore_exchange_round_latency_seconds histogram\n")
	for _, bound := range latencyBuckets {
		b.WriteString(`fmore_exchange_round_latency_seconds_bucket{le="` + formatFloat(bound.Seconds()) + `"} ` +
			strconv.FormatInt(lat.CountAtMost(bound.Nanoseconds()), 10) + "\n")
	}
	count := strconv.FormatInt(lat.Count(), 10)
	b.WriteString(`fmore_exchange_round_latency_seconds_bucket{le="+Inf"} ` + count + "\n")
	b.WriteString("fmore_exchange_round_latency_seconds_sum " + formatFloat(float64(lat.Sum())/1e9) + "\n")
	b.WriteString("fmore_exchange_round_latency_seconds_count " + count + "\n")
	return b.Flush()
}

// formatFloat renders a float the way the exposition format expects:
// shortest exact decimal, no exponent surprises for the magnitudes the
// exchange produces.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
