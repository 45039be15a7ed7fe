package exchange

import (
	"sync/atomic"
	"time"

	"fmore/internal/hist"
	"fmore/pkg/api"
)

// latencyBuckets are the le bounds of the Prometheus round-latency
// histogram (a final +Inf bucket counts every round). They span 250µs to
// 2.5s: the round close is a sub-millisecond operation at bench scale, and
// anything past seconds is pathological. The page reads each through the
// close-latency histogram's CountAtMost, so a close within 0.4% of a bound
// may count on either side of it; changing them changes scrape output.
var latencyBuckets = [...]time.Duration{
	250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond,
	2500 * time.Microsecond, 5 * time.Millisecond, 10 * time.Millisecond,
	25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
}

// acceptStripes is the number of stripes of the accepted-bid counter.
const acceptStripes = 8

// paddedCounter is a counter alone on its cache line.
type paddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Metrics aggregates exchange-wide throughput counters. Every update is
// lock-free — the close-latency histogram included — so a slow /metrics
// scrape can never stall bid submission or a round close, and the
// round-close path never takes a metrics lock.
type Metrics struct {
	start time.Time

	jobsCreated  atomic.Int64
	roundsFailed atomic.Int64
	idleTicks    atomic.Int64
	bidsRejected atomic.Int64
	snapshots    atomic.Int64
	snapshotErrs atomic.Int64

	// The last committed compaction: the wall time of the whole Compact and
	// the part of it spent holding the stop-the-world locks. (The snapshot
	// file's size is the log's to report: wal.Stats.)
	snapshotNs    atomic.Int64
	snapshotStwNs atomic.Int64

	// wrongPartition counts job-scoped requests refused because the cluster
	// map places the job on another replica — sustained growth means a stale
	// router or SDK map.
	wrongPartition atomic.Int64

	// closeLat holds the latency of every successful round close since
	// start: its Count is rounds_total, its quantiles the p50/p99 gauges
	// and its le counts the Prometheus histogram.
	closeLat hist.Hist

	// bidsAccepted is the one counter every accepted bid writes, so it is
	// striped by node (acceptBid): concurrent submitters mostly add to
	// different cache lines, and a scrape sums the stripes. Each stripe
	// only grows and a later scrape loads each one later, so the sum is
	// monotone across scrapes.
	bidsAccepted [acceptStripes]paddedCounter
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// acceptBid counts one accepted bid from node. The stripe comes from the
// hash bits that pick the node's intake stripe, so two submitters on
// different intake stripes mostly write different counter stripes too.
func (m *Metrics) acceptBid(node int) {
	m.bidsAccepted[stripeHash(node)%acceptStripes].n.Add(1)
}

// accepted sums the accepted-bid stripes.
func (m *Metrics) accepted() int64 {
	n := int64(0)
	for i := range m.bidsAccepted {
		n += m.bidsAccepted[i].n.Load()
	}
	return n
}

// observeRound records one completed round and its close-to-outcome latency.
func (m *Metrics) observeRound(latency time.Duration) {
	m.closeLat.Record(latency.Nanoseconds())
}

// Snapshot is a point-in-time view of the exchange's health, the payload of
// GET /v1/metrics; the fields and their meaning are declared in pkg/api.
type Snapshot = api.Metrics

// snapshot assembles the exported view. nodes and activeJobs are supplied
// by the caller (the registry and the live job map own those counts;
// deriving jobs_active at scrape time is what keeps it truthful across a
// restart, where counter deltas go stale).
func (m *Metrics) snapshot(nodes, activeJobs int) Snapshot {
	elapsed := time.Since(m.start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	s := Snapshot{
		UptimeSec:         elapsed,
		JobsActive:        int64(activeJobs),
		JobsCreated:       m.jobsCreated.Load(),
		NodesKnown:        nodes,
		RoundsTotal:       m.closeLat.Count(),
		RoundsFailed:      m.roundsFailed.Load(),
		IdleTicks:         m.idleTicks.Load(),
		BidsAccepted:      m.accepted(),
		BidsRejected:      m.bidsRejected.Load(),
		WalSnapshots:      m.snapshots.Load(),
		WalSnapshotErrors: m.snapshotErrs.Load(),
		WrongPartition:    m.wrongPartition.Load(),
	}
	s.WalSnapshotSeconds = time.Duration(m.snapshotNs.Load()).Seconds()
	s.WalSnapshotStwSeconds = time.Duration(m.snapshotStwNs.Load()).Seconds()
	s.RoundsPerSec = float64(s.RoundsTotal) / elapsed
	s.BidsPerSec = float64(s.BidsAccepted) / elapsed
	s.RoundLatencyP50Ms = float64(m.closeLat.Quantile(0.50)) / 1e6
	s.RoundLatencyP99Ms = float64(m.closeLat.Quantile(0.99)) / 1e6
	return s
}
