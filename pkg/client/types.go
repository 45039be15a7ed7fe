package client

import (
	"errors"
	"fmt"
	"time"

	"fmore/internal/auction"
)

// Wire-spec aliases. The exchange's job/equilibrium descriptions are
// defined next to the constructors they build in internal/auction; aliasing
// them here lets modules outside this repository populate JobSpec (Rule,
// Equilibrium) without naming an internal import path.
type (
	// RuleSpec describes a scoring rule ("additive", "leontief",
	// "cobb-douglas" with per-dimension coefficients).
	RuleSpec = auction.RuleSpec
	// CostSpec describes a bidder cost family c(q, θ).
	CostSpec = auction.CostSpec
	// DistSpec describes the private-type distribution F of θ.
	DistSpec = auction.DistSpec
	// EquilibriumSpec describes the bidder-side game a job needs to serve
	// the solved Theorem 1 strategy.
	EquilibriumSpec = auction.EquilibriumSpec
)

// Error codes of the v1 error envelope, mirrored from the exchange.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
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
	// CodeOverloaded (429) means the exchange's admission controller shed
	// the request; the APIError's RetryAfter carries the server's hint and
	// the client retries after it automatically (within the retry budget).
	CodeOverloaded = "overloaded"
	// CodeWrongPartition (421) means the replica does not own the job; the
	// APIError's ReplicaURL names the owner. The client handles it
	// transparently — see EnableRouting — so callers rarely observe it.
	CodeWrongPartition = "wrong_partition"
	// CodeDurabilityLost (503) means the replica's outcome log failed and
	// it refuses durable writes (degraded mode); reads still serve. The
	// client treats it as routing feedback: it refreshes the partition map
	// and re-aims once (same Idempotency-Key — the degraded replica
	// executed nothing), then fails within the retry budget if the whole
	// cluster is degraded.
	CodeDurabilityLost = "durability_lost"
)

// APIError is a non-2xx response decoded from the uniform v1 error envelope
// {code, message, retry_after_ms?}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error code (Code* constants).
	Code string
	// Message is the human-readable detail.
	Message string
	// RetryAfter is the server's suggested retry delay, when it sent one.
	RetryAfter time.Duration
	// Partition, ReplicaURL and MapVersion are set on wrong_partition
	// responses: the owning partition, its replica's base URL, and the map
	// version behind the verdict.
	Partition  string
	ReplicaURL string
	MapVersion int64
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("exchange: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("exchange: %s (HTTP %d)", e.Message, e.Status)
}

// ErrorCode extracts the envelope code from an error chain, or "" when err
// is not an APIError.
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports whether err is any of the 404-family codes (unknown
// job, pending round, no strategy, unknown route).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == 404
}

// Job is a hosted job's status view.
type Job struct {
	ID           string `json:"id"`
	State        string `json:"state"` // "collecting", "scoring" or "closed"
	Round        int    `json:"round"`
	PendingBids  int    `json:"pending_bids"`
	Rule         string `json:"rule"`
	K            int    `json:"k"`
	BidWindowMS  int64  `json:"bid_window_ms"` // 0 = manual rounds
	MaxRounds    int    `json:"max_rounds"`
	MinBids      int    `json:"min_bids"`
	KeepOutcomes int    `json:"keep_outcomes"`
	// HasStrategy reports whether Strategy/NewBidder will succeed.
	HasStrategy bool `json:"has_strategy"`
}

// Bid is one sealed bid: a promised quality vector and the expected payment.
type Bid struct {
	NodeID    int       `json:"node_id"`
	Qualities []float64 `json:"qualities"`
	Payment   float64   `json:"payment"`
	// Meta optionally labels the node in the registry (open-posture
	// exchanges only).
	Meta string `json:"meta,omitempty"`
}

// Winner is one selected bid of an outcome. Payment is what the aggregator
// pays; BidPayment is what the bid asked (they differ under second price).
type Winner struct {
	NodeID     int       `json:"node_id"`
	Score      float64   `json:"score"`
	Payment    float64   `json:"payment"`
	BidPayment float64   `json:"bid_payment"`
	Qualities  []float64 `json:"qualities"`
}

// Outcome is one completed auction round.
type Outcome struct {
	Job              string   `json:"job"`
	Round            int      `json:"round"`
	NumBids          int      `json:"num_bids"`
	LatencyMS        float64  `json:"latency_ms"`
	Winners          []Winner `json:"winners"`
	TotalPayment     float64  `json:"total_payment"`
	AggregatorProfit float64  `json:"aggregator_profit"`
	// Scores is indexed by the round's bids in ascending node-ID order.
	Scores []float64 `json:"scores"`
	// Error is set (and the winner fields zero) when the round failed; it
	// appears on events and outcome listings, which must represent failed
	// rounds to keep round numbering contiguous.
	Error string `json:"error,omitempty"`
}

// WinnerIDs returns the winning node IDs in descending score order.
func (o Outcome) WinnerIDs() []int {
	ids := make([]int, len(o.Winners))
	for i, w := range o.Winners {
		ids[i] = w.NodeID
	}
	return ids
}

// Won reports whether nodeID is among the outcome's winners, and its
// payment if so.
func (o Outcome) Won(nodeID int) (payment float64, won bool) {
	for _, w := range o.Winners {
		if w.NodeID == nodeID {
			return w.Payment, true
		}
	}
	return 0, false
}

// Metrics is the exchange's health snapshot (GET /v1/metrics).
type Metrics struct {
	UptimeSec    float64 `json:"uptime_sec"`
	JobsActive   int64   `json:"jobs_active"`
	JobsCreated  int64   `json:"jobs_created"`
	NodesKnown   int     `json:"nodes_known"`
	RoundsTotal  int64   `json:"rounds_total"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	RoundsFailed int64   `json:"rounds_failed"`
	IdleTicks    int64   `json:"idle_ticks"`
	BidsAccepted int64   `json:"bids_accepted"`
	BidsRejected int64   `json:"bids_rejected"`
	BidsPerSec   float64 `json:"bids_per_sec"`
	// WalSnapshots / WalSnapshotErrors count WAL compactions (snapshot +
	// log rotation) on a durable exchange; both 0 when running in-memory.
	WalSnapshots      int64 `json:"wal_snapshots"`
	WalSnapshotErrors int64 `json:"wal_snapshot_errors"`
	// WalSegmentCount / WalBytes gauge the WAL's on-disk footprint (live
	// segment count and total bytes across segments); both 0 in-memory.
	WalSegmentCount int64 `json:"wal_segment_count"`
	WalBytes        int64 `json:"wal_bytes"`
	// FirehoseEvents / FirehoseDropped count events published to the
	// exchange's observability firehose and events slow sinks missed.
	FirehoseEvents    int64   `json:"firehose_events"`
	FirehoseDropped   int64   `json:"firehose_dropped"`
	RoundLatencyP50Ms float64 `json:"round_latency_p50_ms"`
	RoundLatencyP99Ms float64 `json:"round_latency_p99_ms"`
}

// Rollup is one aggregate view — windowed or lifetime — of a job's or
// node's auction activity, as served by the stats endpoints. Node rollups
// leave the round fields zero (rounds are a job-level event).
type Rollup struct {
	Rounds            int64   `json:"rounds"`
	RoundsFailed      int64   `json:"rounds_failed"`
	Bids              int64   `json:"bids"`
	Wins              int64   `json:"wins"`
	WinRate           float64 `json:"win_rate"`
	TotalPayment      float64 `json:"total_payment"`
	AggregatorProfit  float64 `json:"aggregator_profit"`
	AvgRoundLatencyMS float64 `json:"avg_round_latency_ms"`
	MaxRoundLatencyMS float64 `json:"max_round_latency_ms"`
}

// PriceHistogram is a fixed-bucket bid-price distribution: Counts[i]
// counts accepted bids with price <= Bounds[i]; Counts[len(Bounds)]
// catches everything above the last bound.
type PriceHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// JobStats is the payload of GET /v1/jobs/{id}/stats: rollups over the
// server's sliding window (roughly the last WindowSec seconds) and over
// the aggregator's lifetime, plus the windowed bid-price histogram.
type JobStats struct {
	Job            string         `json:"job"`
	WindowSec      int64          `json:"window_sec"`
	Window         Rollup         `json:"window"`
	Lifetime       Rollup         `json:"lifetime"`
	PriceHistogram PriceHistogram `json:"price_histogram"`
}

// NodeStats is the payload of GET /v1/nodes/{id}/stats. LastBidMS and
// LastWinMS are unix-millisecond timestamps of the node's most recent
// accepted bid and win (0 = never).
type NodeStats struct {
	Node           int            `json:"node"`
	WindowSec      int64          `json:"window_sec"`
	Window         Rollup         `json:"window"`
	Lifetime       Rollup         `json:"lifetime"`
	PriceHistogram PriceHistogram `json:"price_histogram"`
	LastBidMS      int64          `json:"last_bid_ms"`
	LastWinMS      int64          `json:"last_win_ms"`
}

// StrategyPoint is one sampled point of the equilibrium bid curve.
type StrategyPoint struct {
	Theta     float64   `json:"theta"`
	Qualities []float64 `json:"qualities"`
	Payment   float64   `json:"payment"`
	Score     float64   `json:"score"`
}

// Strategy is the solved Theorem 1 equilibrium bid curve served by
// GET /v1/jobs/{id}/strategy. Points sample the θ support evenly; Payment
// and Qualities interpolate linearly between them, which reproduces the
// solver's own curve to the sampling resolution.
type Strategy struct {
	Job     string          `json:"job"`
	Rule    string          `json:"rule"`
	N       int             `json:"n"`
	K       int             `json:"k"`
	ThetaLo float64         `json:"theta_lo"`
	ThetaHi float64         `json:"theta_hi"`
	Points  []StrategyPoint `json:"points"`
}

// locate clamps theta into the support and returns the surrounding sample
// index plus the interpolation fraction.
func (s *Strategy) locate(theta float64) (int, float64) {
	n := len(s.Points)
	if n == 0 {
		return 0, 0
	}
	if theta <= s.Points[0].Theta || n == 1 {
		return 0, 0
	}
	last := n - 1
	if theta >= s.Points[last].Theta {
		return last - 1, 1
	}
	// Evenly spaced samples: index arithmetic instead of a search.
	span := s.Points[last].Theta - s.Points[0].Theta
	pos := (theta - s.Points[0].Theta) / span * float64(last)
	i := int(pos)
	if i >= last {
		i = last - 1
	}
	return i, pos - float64(i)
}

// Payment returns the equilibrium expected payment pˢ(θ).
func (s *Strategy) Payment(theta float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	i, t := s.locate(theta)
	if i+1 >= len(s.Points) {
		return s.Points[i].Payment
	}
	return s.Points[i].Payment + t*(s.Points[i+1].Payment-s.Points[i].Payment)
}

// Qualities returns the equilibrium quality vector qˢ(θ).
func (s *Strategy) Qualities(theta float64) []float64 {
	if len(s.Points) == 0 {
		return nil
	}
	i, t := s.locate(theta)
	q := append([]float64(nil), s.Points[i].Qualities...)
	if i+1 < len(s.Points) {
		next := s.Points[i+1].Qualities
		for d := range q {
			if d < len(next) {
				q[d] += t * (next[d] - q[d])
			}
		}
	}
	return q
}

// Bid assembles the equilibrium bid of a node with private type theta.
func (s *Strategy) Bid(nodeID int, theta float64) Bid {
	return Bid{NodeID: nodeID, Qualities: s.Qualities(theta), Payment: s.Payment(theta)}
}
