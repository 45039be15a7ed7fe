package auction

// This file is a frozen, test-only copy of the pre-refactor full-sort
// winner-determination implementation (sort.SliceStable over the whole
// slate, fresh allocations per call). The equivalence property test in
// select_equiv_test.go replays random slates through both this reference
// and the heap-based Select pipeline and requires identical Outcomes and
// rng draw sequences — the bit-for-bit guarantee the exchange's write-ahead
// log replay (PR 2) depends on. Do not "fix" or modernize this code; its
// whole value is that it stays exactly what the legacy entry points did.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

func refRankWith(rule ScoringRule, bids []Bid, pre []float64, rng *rand.Rand) ([]scoredBid, []float64, error) {
	if len(bids) == 0 {
		return nil, nil, ErrNoBids
	}
	if pre != nil && len(pre) != len(bids) {
		return nil, nil, fmt.Errorf("auction: %d precomputed scores for %d bids", len(pre), len(bids))
	}
	ranked := make([]scoredBid, 0, len(bids))
	scores := make([]float64, len(bids))
	tiebreak := make([]float64, len(bids))
	for i, b := range bids {
		if err := b.Validate(rule.Dims()); err != nil {
			return nil, nil, err
		}
		s := 0.0
		if pre != nil {
			s = pre[i]
		} else {
			var err error
			s, err = Score(rule, b.Qualities, b.Payment)
			if err != nil {
				return nil, nil, err
			}
		}
		scores[i] = s
		tiebreak[i] = rng.Float64()
		ranked = append(ranked, scoredBid{bid: b, score: s, pos: i})
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return tiebreak[ranked[a].pos] > tiebreak[ranked[b].pos]
	})
	return ranked, scores, nil
}

func refDetermineWinners(rule ScoringRule, bids []Bid, pre []float64, k int, payment PaymentRule, rng *rand.Rand) (Outcome, error) {
	if k < 1 {
		return Outcome{}, fmt.Errorf("auction: K must be >= 1, got %d", k)
	}
	ranked, scores, err := refRankWith(rule, bids, pre, rng)
	if err != nil {
		return Outcome{}, err
	}
	limit := k
	if limit > len(ranked) {
		limit = len(ranked)
	}
	selected := make([]scoredBid, 0, limit)
	for _, sb := range ranked[:limit] {
		if sb.score < 0 {
			break
		}
		selected = append(selected, sb)
	}
	return refBuildOutcome(rule, ranked, selected, scores, payment)
}

func refBuildOutcome(rule ScoringRule, ranked, selected []scoredBid, scores []float64, payment PaymentRule) (Outcome, error) {
	refScore := 0.0
	hasRef := false
	if len(selected) < len(ranked) {
		refScore = ranked[len(selected)].score
		if refScore < 0 {
			refScore = 0
		}
		hasRef = true
	}

	out := Outcome{
		Winners: make([]Winner, 0, len(selected)),
		Scores:  scores,
	}
	for _, sb := range selected {
		pay := sb.bid.Payment
		if payment == SecondPrice && hasRef {
			if p2 := rule.Value(sb.bid.Qualities) - refScore; p2 > pay {
				pay = p2
			}
		}
		out.Winners = append(out.Winners, Winner{Bid: sb.bid.Clone(), Score: sb.score, Payment: pay})
		out.AggregatorProfit += rule.Value(sb.bid.Qualities) - pay
	}
	return out, nil
}

func refDetermineWinnersPsi(rule ScoringRule, bids []Bid, pre []float64, k int, psi float64, payment PaymentRule, rng *rand.Rand) (Outcome, error) {
	if k < 1 {
		return Outcome{}, fmt.Errorf("auction: K must be >= 1, got %d", k)
	}
	if psi <= 0 || psi > 1 || math.IsNaN(psi) {
		return Outcome{}, fmt.Errorf("auction: psi must be in (0, 1], got %v", psi)
	}
	ranked, scores, err := refRankWith(rule, bids, pre, rng)
	if err != nil {
		return Outcome{}, err
	}
	eligible := ranked[:0:0]
	for _, sb := range ranked {
		if sb.score >= 0 {
			eligible = append(eligible, sb)
		}
	}
	if len(eligible) == 0 {
		return Outcome{Scores: scores}, nil
	}

	const maxPasses = 1 << 16
	selected := make([]scoredBid, 0, k)
	remaining := append([]scoredBid(nil), eligible...)
	for pass := 0; len(selected) < k && len(remaining) > 0 && pass < maxPasses; pass++ {
		next := remaining[:0]
		for _, sb := range remaining {
			if len(selected) >= k {
				next = append(next, sb)
				continue
			}
			if psi >= 1 || rng.Float64() < psi {
				selected = append(selected, sb)
			} else {
				next = append(next, sb)
			}
		}
		remaining = next
	}
	return refBuildOutcome(rule, ranked, selected, scores, payment)
}
