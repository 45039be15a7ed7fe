package auction

import (
	"fmt"
	"math"
)

// This file implements the two extensions the paper's conclusion names as
// future work:
//
//	"In this paper, the budget constraint of the aggregator is not
//	 considered, which is left for future work. In addition, whether the
//	 probability ψ should be identical or distinct for each node remains
//	 to be studied."
//
// SelectionRequest.Budget adds a per-round payment budget to winner
// determination and SelectionRequest.PsiOf generalizes ψ-FMore to per-node
// admission probabilities (see select.go); this file holds their helpers.

// clampToBudget scales down second-price raises (the payment above the
// asked price) uniformly so TotalPayment() <= budget, then recomputes the
// aggregator profit.
func clampToBudget(rule ScoringRule, out *Outcome, budget float64) {
	total := out.TotalPayment()
	if total <= budget {
		return
	}
	asked, raise := 0.0, 0.0
	for _, w := range out.Winners {
		asked += w.Bid.Payment
		raise += w.Payment - w.Bid.Payment
	}
	if raise <= 0 {
		return // nothing to scale; asked payments alone exceed the budget
	}
	scale := (budget - asked) / raise
	if scale < 0 {
		scale = 0
	}
	out.AggregatorProfit = 0
	for i := range out.Winners {
		w := &out.Winners[i]
		w.Payment = w.Bid.Payment + scale*(w.Payment-w.Bid.Payment)
		out.AggregatorProfit += rule.Value(w.Bid.Qualities) - w.Payment
	}
}

// RankPsi builds a per-node ψ assignment that decays with score rank:
// the r-th ranked node gets psiTop·decay^r (floored at psiFloor). It is one
// concrete answer to the paper's open question of distinct ψ per node —
// strong nodes stay near-deterministic, weak nodes keep a diversity chance.
func RankPsi(rule ScoringRule, bids []Bid, psiTop, decay, psiFloor float64) (func(nodeID int) float64, error) {
	if psiTop <= 0 || psiTop > 1 || decay <= 0 || decay > 1 || psiFloor <= 0 || psiFloor > psiTop {
		return nil, fmt.Errorf("auction: invalid RankPsi parameters top=%v decay=%v floor=%v", psiTop, decay, psiFloor)
	}
	type ranked struct {
		id    int
		score float64
	}
	rs := make([]ranked, 0, len(bids))
	for _, b := range bids {
		s, err := Score(rule, b.Qualities, b.Payment)
		if err != nil {
			return nil, err
		}
		rs = append(rs, ranked{id: b.NodeID, score: s})
	}
	// Insertion sort by descending score (bid pools are small).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].score > rs[j-1].score; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	psis := make(map[int]float64, len(rs))
	psi := psiTop
	for _, r := range rs {
		psis[r.id] = math.Max(psi, psiFloor)
		psi *= decay
	}
	return func(nodeID int) float64 {
		if p, ok := psis[nodeID]; ok {
			return p
		}
		return psiFloor
	}, nil
}
