package auction

import (
	"fmt"
	"math"
)

// Bid is a sealed bid (qᵢ, pᵢ) submitted by one edge node: the promised
// quality vector and the expected payment.
type Bid struct {
	// NodeID identifies the bidding edge node.
	NodeID int
	// Qualities is the promised quality vector q = (q₁..qₘ).
	Qualities []float64
	// Payment is the expected payment p the node asks for.
	Payment float64
}

// Validate checks the bid against the rule's dimensionality and finiteness.
func (b Bid) Validate(dims int) error {
	if err := CheckDims(dims, b.Qualities); err != nil {
		return fmt.Errorf("bid from node %d: %w", b.NodeID, err)
	}
	if math.IsNaN(b.Payment) || math.IsInf(b.Payment, 0) {
		return fmt.Errorf("bid from node %d: payment %v is not finite", b.NodeID, b.Payment)
	}
	return nil
}

// Clone returns a deep copy of the bid (qualities are copied).
func (b Bid) Clone() Bid {
	return Bid{
		NodeID:    b.NodeID,
		Qualities: append([]float64(nil), b.Qualities...),
		Payment:   b.Payment,
	}
}

// Winner records one selected bid together with its score and the payment
// granted by the payment rule.
type Winner struct {
	Bid Bid
	// Score is S(q, p) under the broadcast rule.
	Score float64
	// Payment is what the aggregator actually pays (equals Bid.Payment under
	// the first-price rule; may exceed it under the second-price rule).
	Payment float64
}

// Outcome is the full result of one auction round.
type Outcome struct {
	// Winners are the selected bids in descending score order.
	Winners []Winner
	// Scores maps every bidder (by slice position of the input bids) to its
	// evaluated score, winners and losers alike, for score-distribution
	// analysis (paper Fig. 8).
	Scores []float64
	// AggregatorProfit is V = Σ_{i∈W} (U(qᵢ) − pᵢ) (Eq 6) where the utility
	// U is taken equal to the scoring rule's s(·), the Pareto-efficient
	// configuration of Theorem 4.
	AggregatorProfit float64
}

// Clone returns an Outcome that owns all of its memory, in three
// allocations whatever K is: the winner records, one backing array holding
// every winner's quality vector (each slice capacity-clipped, so appending
// to one cannot reach its neighbour), and the score vector. Nil-ness of
// Winners, Scores and each Qualities is preserved, so the copy is
// reflect.DeepEqual to its source. Use it to retain the buffer-aliasing
// result of Selector.Select beyond the selector's next call, or to get a
// private copy of an outcome shared with other readers.
func (o Outcome) Clone() Outcome {
	c := o
	if o.Winners != nil {
		need := 0
		for i := range o.Winners {
			need += len(o.Winners[i].Bid.Qualities)
		}
		quals := make([]float64, 0, need)
		c.Winners = make([]Winner, len(o.Winners))
		for i, w := range o.Winners {
			if w.Bid.Qualities != nil {
				start := len(quals)
				quals = append(quals, w.Bid.Qualities...)
				w.Bid.Qualities = quals[start:len(quals):len(quals)]
			}
			c.Winners[i] = w
		}
	}
	if o.Scores != nil {
		c.Scores = make([]float64, len(o.Scores))
		copy(c.Scores, o.Scores)
	}
	return c
}

// WinnerIDs returns the node IDs of the winners in score order.
func (o Outcome) WinnerIDs() []int {
	ids := make([]int, len(o.Winners))
	for i, w := range o.Winners {
		ids[i] = w.Bid.NodeID
	}
	return ids
}

// TotalPayment returns the sum the aggregator pays this round.
func (o Outcome) TotalPayment() float64 {
	total := 0.0
	for _, w := range o.Winners {
		total += w.Payment
	}
	return total
}
