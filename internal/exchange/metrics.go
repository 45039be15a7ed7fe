package exchange

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"fmore/pkg/api"
)

// latWindow is the sliding-window size of retained round latencies for the
// percentile estimates. Rounds are rare events (one per job per bid window),
// so 1024 samples cover minutes of heavy traffic.
const latWindow = 1024

// latencyBuckets are the cumulative histogram's upper bounds in seconds
// (a final implicit +Inf bucket catches the rest). They span 250µs to
// 2.5s: the round close is a sub-millisecond operation at bench scale, and
// anything past seconds is pathological. Exposed verbatim as the
// Prometheus `le` labels, so changing them changes scrape output.
var latencyBuckets = [...]float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// acceptStripes is the number of stripes of the accepted-bid counter.
const acceptStripes = 8

// paddedCounter is a counter alone on its cache line.
type paddedCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Metrics aggregates exchange-wide throughput counters. Every update is
// lock-free — including the latency ring, whose slots are atomic bit
// patterns — so a slow /metrics scrape can never stall bid submission or a
// round close, and the round-close path never takes a metrics lock.
type Metrics struct {
	start time.Time

	jobsCreated  atomic.Int64
	roundsTotal  atomic.Int64
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

	// latRing holds the last latWindow round latencies as float64 bit
	// patterns. Writers claim a slot by incrementing latCount; a percentile
	// scrape loads the slots without any lock, so a sample racing the copy
	// is read as either the old or the new round's latency — both valid
	// members of the sliding window.
	latRing  [latWindow]atomic.Uint64
	latCount atomic.Int64

	// latHist/latSumNs are the round-latency histogram behind the
	// Prometheus exposition, bucketed at write time alongside the
	// percentile ring (one extra atomic add per round — a scrape never
	// rescans history). latHist[i] counts rounds whose first fitting
	// bucket is latencyBuckets[i] (non-cumulative; the exposition
	// accumulates), rounds beyond the last bound count only in the
	// histogram total, which is roundsTotal itself.
	latHist  [len(latencyBuckets)]atomic.Int64
	latSumNs atomic.Int64

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
	m.roundsTotal.Add(1)
	i := m.latCount.Add(1) - 1
	secs := latency.Seconds()
	m.latRing[i%latWindow].Store(math.Float64bits(secs))
	m.latSumNs.Add(latency.Nanoseconds())
	for b := range latencyBuckets {
		if secs <= latencyBuckets[b] {
			m.latHist[b].Add(1)
			break
		}
	}
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
		RoundsTotal:       m.roundsTotal.Load(),
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
	s.RoundLatencyP50Ms, s.RoundLatencyP99Ms = m.latencyPercentiles()
	return s
}

// latencyHistogram reads the write-time histogram in the cumulative form
// the Prometheus exposition wants: cum[i] counts rounds <= the i-th
// bucket bound, count is the total observations (the +Inf bucket) and
// sumSec the latency sum in seconds. Buckets are loaded before the total,
// and observeRound increments the total first — so count can only be >=
// the loaded cumulative tail and the scraped histogram stays monotone.
func (m *Metrics) latencyHistogram() (cum [len(latencyBuckets)]int64, count int64, sumSec float64) {
	run := int64(0)
	for i := range m.latHist {
		run += m.latHist[i].Load()
		cum[i] = run
	}
	return cum, m.roundsTotal.Load(), float64(m.latSumNs.Load()) / 1e9
}

// latencyPercentiles returns (p50, p99) in milliseconds over the ring. The
// copy takes no lock at all: each slot is an atomic load, so the scrape
// can be arbitrarily slow without ever blocking observeRound. A slot whose
// writer claimed it (latCount incremented) but has not stored yet reads as
// the zero bit pattern; real latencies are strictly positive, so zero
// slots are unambiguously unwritten and skipped rather than polluting the
// percentiles with phantom 0ms samples during the first window fill.
func (m *Metrics) latencyPercentiles() (p50, p99 float64) {
	claimed := m.latCount.Load()
	if claimed > latWindow {
		claimed = latWindow
	}
	if claimed == 0 {
		return 0, 0
	}
	buf := make([]float64, 0, claimed)
	for i := int64(0); i < claimed; i++ {
		if bits := m.latRing[i].Load(); bits != 0 {
			buf = append(buf, math.Float64frombits(bits))
		}
	}
	n := int64(len(buf))
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	pick := func(q float64) float64 {
		// Nearest-rank: ⌈q·n⌉−1. Flooring q·(n−1) instead under-reports
		// badly at small n — with 2 samples the "p99" would be the minimum.
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= int(n) {
			i = int(n) - 1
		}
		return buf[i] * 1e3
	}
	return pick(0.50), pick(0.99)
}
