// Package api declares the exchange's /v1 HTTP contract once: every route,
// request and response body, the error envelope and its stable codes. The
// handler (internal/exchange, internal/analytics) serves and encodes these,
// pkg/client calls and aliases them and cmd/fmore-router routes by and
// answers in them, so a field or route added here is on the wire at once. Declared elsewhere, each next to
// the code that gives it meaning: the rule and equilibrium specs a job
// request carries (internal/auction/spec.go), the cluster map document and
// the routing part of a 421 envelope (internal/partition), and the WAL's
// records (internal/exchange/persist.go) — a different format on purpose:
// only the process that wrote a log reads it back, never a client.
//
// Tests pin the bytes of several bodies, field order included (a struct that
// replaced a map literal keeps the map's sorted keys): add fields at the end.
package api

import "fmore/internal/partition"

// Error codes of the v1 error envelope. Every error response is
//
//	{"code": "...", "message": "...", "retry_after_ms": N?}
//
// with Content-Type application/json; code is stable API surface, message is
// human-readable detail.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
	CodeNotAllowed     = "method_not_allowed"
	CodeUnknownJob     = "unknown_job"
	CodeRoundPending   = "round_pending"
	CodeNoStrategy     = "no_strategy"
	CodeOutcomeEvicted = "outcome_evicted"
	CodeDuplicateBid   = "duplicate_bid"
	CodeJobClosed      = "job_closed"
	CodeBelowQuorum    = "below_quorum"
	CodeExchangeClosed = "exchange_closed"
	CodeNotRegistered  = "not_registered"
	CodeBlacklisted    = "blacklisted"
	CodeTimeout        = "timeout"
	CodeInternal       = "internal_error"
	// CodeOverloaded (429) means the admission controller shed the request
	// (rate limit or in-flight cap); the envelope's retry_after_ms says when
	// to try again. Deliberate backpressure — retryable by contract, and the
	// SDK retries after the hint automatically (within the retry budget).
	CodeOverloaded = "overloaded"
	// CodeWrongPartition (421 Misdirected Request) means the cluster map
	// places the job on another replica; the envelope carries that replica's
	// base URL so the caller can re-aim in one hop. The SDK and the router
	// handle it transparently (partition.Routes.Reaim), so callers rarely
	// observe it.
	CodeWrongPartition = partition.CodeWrongPartition
	// CodeDurabilityLost (503) means the replica's outcome log took a
	// sticky error and it refuses durable writes (degraded mode). Reads
	// keep serving. The SDK treats it as routing feedback: it refreshes the
	// partition map and re-aims once (same Idempotency-Key — the degraded
	// replica executed nothing), then fails within the retry budget if the
	// whole cluster is degraded.
	CodeDurabilityLost = "durability_lost"
	// CodeRouterError marks a failure of cmd/fmore-router itself (no map, an
	// unreachable replica, an oversized body); no replica sends it.
	CodeRouterError = "router_error"
)

// Error is the uniform v1 error shape. The partition.Misdirect fields are
// set only on wrong_partition responses.
type Error struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	partition.Misdirect
}

// Healthz is the GET /v1/healthz payload. status is "ok", "overloaded"
// (admission backpressure, clears on its own) or "degraded" (durability
// lost, clears only on restart/failover); the admission_* fields mirror the
// controller's accounting (all zero when admission is disabled).
type Healthz struct {
	Status        string `json:"status"`
	RetryAfterMS  int64  `json:"retry_after_ms,omitempty"`
	WalFailedUnix int64  `json:"wal_failed_unix,omitempty"`
	Inflight      int64  `json:"admission_inflight"`
	ShedTotal     int64  `json:"admission_shed_total"`
	SSEActive     int64  `json:"admission_sse_active"`
}

// Metrics is a point-in-time view of the exchange's health, the payload of
// GET /v1/metrics.
type Metrics struct {
	UptimeSec    float64 `json:"uptime_sec"`
	JobsActive   int64   `json:"jobs_active"`
	JobsCreated  int64   `json:"jobs_created"`
	NodesKnown   int     `json:"nodes_known"`
	RoundsTotal  int64   `json:"rounds_total"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// RoundsFailed counts rounds whose scoring or winner determination
	// errored (a poisoned bid set); a healthy exchange keeps this at 0.
	RoundsFailed int64 `json:"rounds_failed"`
	// IdleTicks counts bid windows that expired below the bid quorum.
	IdleTicks    int64   `json:"idle_ticks"`
	BidsAccepted int64   `json:"bids_accepted"`
	BidsRejected int64   `json:"bids_rejected"`
	BidsPerSec   float64 `json:"bids_per_sec"`
	// WalSnapshots counts completed WAL compactions (snapshot + rotation);
	// WalSnapshotErrors counts attempts that failed and will be retried.
	// Both stay 0 on an in-memory exchange.
	WalSnapshots      int64 `json:"wal_snapshots"`
	WalSnapshotErrors int64 `json:"wal_snapshot_errors"`
	// WalSnapshotBytes is the size of the last committed snapshot file
	// (after a restart, the one recovery read); the log compacts again once
	// its active segment reaches twice it, or the SnapshotBytes floor when
	// that is larger. WalSnapshotSeconds is the wall time of the compaction
	// that wrote it and WalSnapshotStwSeconds the share of that spent
	// holding the stop-the-world locks, when no job could close a round.
	WalSnapshotBytes      int64   `json:"wal_snapshot_bytes"`
	WalSnapshotSeconds    float64 `json:"wal_snapshot_seconds"`
	WalSnapshotStwSeconds float64 `json:"wal_snapshot_stw_seconds"`
	// WalSegmentCount and WalBytes gauge compaction pressure live: the
	// number of log segments replay would read and their total bytes
	// (sealed segments plus the active tail). Both 0 in-memory.
	WalSegmentCount int64 `json:"wal_segment_count"`
	WalBytes        int64 `json:"wal_bytes"`
	// WalFsyncTotal counts the log's group commits (fsyncs) and
	// WalFsyncBatchedRecords the records those commits made durable;
	// their ratio is the achieved group-commit batch size under the log's
	// fixed 2 ms hold. Both 0 in-memory.
	WalFsyncTotal          int64 `json:"wal_fsync_total"`
	WalFsyncBatchedRecords int64 `json:"wal_fsync_batched_records"`
	// WalFailed reports durability loss: the outcome log took a sticky
	// error and the replica is refusing durable writes (degraded mode).
	// WalLastErrorUnix is when (Unix seconds), 0 while healthy. Both stay
	// healthy-valued in-memory.
	WalFailed        bool  `json:"wal_failed"`
	WalLastErrorUnix int64 `json:"wal_last_error_unix"`
	// WrongPartition counts requests refused with wrong_partition — jobs
	// the cluster map assigns to a different replica. Stays 0 unpartitioned.
	WrongPartition int64 `json:"wrong_partition"`
	// FirehoseEvents counts the events of every round closed while a sink
	// was attached to the tap, one per bid, per winner and per close of the
	// round; FirehoseDropped counts those of the rounds the tap dropped
	// whole because its queue was full.
	FirehoseEvents  int64 `json:"firehose_events"`
	FirehoseDropped int64 `json:"firehose_dropped"`
	// Nearest-rank percentiles of the latency of every successful round
	// close since start, each within 0.4% of the exact value.
	RoundLatencyP50Ms float64 `json:"round_latency_p50_ms"`
	RoundLatencyP99Ms float64 `json:"round_latency_p99_ms"`
	// Admission* mirror the overload-protection accounting (Options.
	// Admission): whether the controller is installed, whether it currently
	// reports overload, the in-flight bid-submit gauge, sheds by scope, and
	// SSE subscriber occupancy/evictions. All zero (and Enabled false) when
	// admission is disabled.
	AdmissionEnabled      bool  `json:"admission_enabled"`
	AdmissionOverloaded   bool  `json:"admission_overloaded"`
	AdmissionInflight     int64 `json:"admission_inflight"`
	AdmissionShedTotal    int64 `json:"admission_shed_total"`
	AdmissionShedGlobal   int64 `json:"admission_shed_global"`
	AdmissionShedNode     int64 `json:"admission_shed_node"`
	AdmissionShedJob      int64 `json:"admission_shed_job"`
	AdmissionShedInflight int64 `json:"admission_shed_inflight"`
	AdmissionSSEActive    int64 `json:"admission_sse_active"`
	AdmissionSSEEvicted   int64 `json:"admission_sse_evicted"`
}

// Rollup is one aggregate view — either windowed or lifetime — of a job's
// or node's auction activity, as served by the stats endpoints. Node
// rollups leave the round fields zero (rounds are a job-level event).
type Rollup struct {
	// Rounds and RoundsFailed count completed round closes.
	Rounds       int64 `json:"rounds"`
	RoundsFailed int64 `json:"rounds_failed"`
	// Bids counts the accepted bids of closed rounds (a bid is counted when
	// its round closes); Wins counts selected ones.
	Bids int64 `json:"bids"`
	Wins int64 `json:"wins"`
	// WinRate is Wins/Bids (0 when no bids).
	WinRate float64 `json:"win_rate"`
	// TotalPayment sums granted payments (for a job: across its rounds;
	// for a node: what the node was paid).
	TotalPayment float64 `json:"total_payment"`
	// AggregatorProfit sums round profits (jobs only).
	AggregatorProfit float64 `json:"aggregator_profit"`
	// AvgRoundLatencyMS / MaxRoundLatencyMS summarize close latency
	// (jobs only).
	AvgRoundLatencyMS float64 `json:"avg_round_latency_ms"`
	MaxRoundLatencyMS float64 `json:"max_round_latency_ms"`
}

// PriceHistogram is a fixed-bucket bid-price distribution: Counts[i] is
// the number of accepted bids with price <= Bounds[i], Counts[len(Bounds)]
// catches the rest. Bounds are parallel (not a map keyed by +Inf) so the
// histogram JSON-encodes cleanly.
type PriceHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// JobStats is the payload of GET /v1/jobs/{id}/stats: rollups over the
// server's sliding window and over the aggregator's lifetime, plus the
// windowed bid-price histogram.
type JobStats struct {
	Job       string `json:"job"`
	WindowSec int64  `json:"window_sec"`
	// Window covers roughly the last WindowSec seconds; Lifetime covers
	// everything since the aggregator attached.
	Window   Rollup `json:"window"`
	Lifetime Rollup `json:"lifetime"`
	// PriceHistogram is the windowed distribution of accepted bid prices.
	PriceHistogram PriceHistogram `json:"price_histogram"`
}

// NodeStats is the payload of GET /v1/nodes/{id}/stats.
type NodeStats struct {
	Node      int    `json:"node"`
	WindowSec int64  `json:"window_sec"`
	Window    Rollup `json:"window"`
	Lifetime  Rollup `json:"lifetime"`
	// PriceHistogram is the windowed distribution of the node's accepted
	// bid prices.
	PriceHistogram PriceHistogram `json:"price_histogram"`
	// LastBidMS / LastWinMS are unix-millisecond timestamps of when the
	// aggregator saw the closed round of the node's most recent bid and win
	// (0 = never). Bids are sealed: one in a round still open is not
	// counted anywhere in these stats until that round closes.
	LastBidMS int64 `json:"last_bid_ms"`
	LastWinMS int64 `json:"last_win_ms"`
}
