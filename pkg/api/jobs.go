package api

import "fmore/internal/auction"

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	ID          string           `json:"id,omitempty"`
	Rule        auction.RuleSpec `json:"rule"`
	K           int              `json:"k"`
	Payment     string           `json:"payment,omitempty"` // "first-price" (default) | "second-price"
	Psi         float64          `json:"psi,omitempty"`
	Seed        int64            `json:"seed,omitempty"`
	BidWindowMS int64            `json:"bid_window_ms,omitempty"` // 0 = manual rounds
	MaxRounds   int              `json:"max_rounds,omitempty"`
	MinBids     int              `json:"min_bids,omitempty"`
	// KeepOutcomes bounds the job's retained outcome history (0 = server
	// default of 128); older rounds answer 410 Gone.
	KeepOutcomes int `json:"keep_outcomes,omitempty"`
	// Equilibrium optionally describes the bidder-side game; with it the
	// job serves GET /v1/jobs/{id}/strategy so clients can bid the Theorem 1
	// equilibrium without solving it locally.
	Equilibrium *auction.EquilibriumSpec `json:"equilibrium,omitempty"`
}

// Job describes a hosted job, spec and window behavior included so clients
// can see how much history is retained and how rounds are driven.
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
	// HasStrategy reports whether GET /v1/jobs/{id}/strategy is available
	// (the SDK's Strategy/NewBidder will succeed).
	HasStrategy bool `json:"has_strategy"`
}

// JobList is the GET /v1/jobs page.
type JobList struct {
	Jobs []Job `json:"jobs"`
	// NextCursor, when non-empty, fetches the next page via ?cursor=.
	NextCursor string `json:"next_cursor,omitempty"`
}

// JobRemoved is the DELETE /v1/jobs/{id} acknowledgement.
type JobRemoved struct {
	Job     string `json:"job"`
	Removed bool   `json:"removed"`
}

// Bid is the POST /v1/jobs/{id}/bids payload: one sealed bid, a promised
// quality vector and the expected payment.
type Bid struct {
	NodeID    int       `json:"node_id"`
	Qualities []float64 `json:"qualities"`
	Payment   float64   `json:"payment"`
	// Meta optionally labels the node in the registry (open-posture
	// exchanges only).
	Meta string `json:"meta,omitempty"`
}

// BidAck acknowledges an accepted bid with the round it entered.
type BidAck struct {
	Job   string `json:"job"`
	Round int    `json:"round"`
}

// Winner is one selected bid in an outcome response. BidPayment is the
// payment the bid asked for; Payment is what the aggregator pays (they
// differ under the second-price rule).
type Winner struct {
	NodeID     int       `json:"node_id"`
	Score      float64   `json:"score"`
	Payment    float64   `json:"payment"`
	BidPayment float64   `json:"bid_payment"`
	Qualities  []float64 `json:"qualities"`
}

// Outcome is one completed auction round: the GET /v1/jobs/{id}/outcome
// payload, and the data of round_closed events.
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

// OutcomeList is the GET /v1/jobs/{id}/outcomes page.
type OutcomeList struct {
	Outcomes []Outcome `json:"outcomes"`
	// NextCursor, when non-empty, is the round number to pass as ?cursor=
	// for the next page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Event names of the GET /v1/jobs/{id}/events stream (the SSE "event:"
// field).
const (
	// EventRoundOpen announces that a round began collecting bids; its data
	// is a RoundOpen.
	EventRoundOpen = "round_open"
	// EventRoundClosed announces a completed round; its data is the Outcome
	// and its SSE id the round number.
	EventRoundClosed = "round_closed"
	// EventJobClosed announces the job's end; its data is a JobClosed and the
	// stream ends after it.
	EventJobClosed = "job_closed"
)

// RoundOpen is the data of a round_open event on GET /v1/jobs/{id}/events.
type RoundOpen struct {
	Job   string `json:"job"`
	Round int    `json:"round"`
}

// JobClosed is the data of the stream's final job_closed event.
type JobClosed struct {
	Job string `json:"job"`
}

// NodeRequest is the POST /v1/nodes payload.
type NodeRequest struct {
	NodeID int    `json:"node_id"`
	Meta   string `json:"meta,omitempty"`
}

// NodeRegistered acknowledges POST /v1/nodes with the node's lifetime bids.
type NodeRegistered struct {
	Bids   int64 `json:"bids"`
	NodeID int   `json:"node_id"`
}

// NodeBlacklisted acknowledges POST /v1/nodes/{id}/blacklist.
type NodeBlacklisted struct {
	Blacklisted bool `json:"blacklisted"`
	NodeID      int  `json:"node_id"`
}

// Strategy is the GET /v1/jobs/{id}/strategy payload: the solved Theorem 1
// equilibrium bid curve sampled evenly over the θ support. Payment and
// Qualities interpolate linearly between points, which reproduces the
// solver's own curve to the sampling resolution.
type Strategy struct {
	Job     string                  `json:"job"`
	Rule    string                  `json:"rule"`
	N       int                     `json:"n"`
	K       int                     `json:"k"`
	ThetaLo float64                 `json:"theta_lo"`
	ThetaHi float64                 `json:"theta_hi"`
	Points  []auction.StrategyPoint `json:"points"`
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
