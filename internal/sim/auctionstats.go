package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"fmore/internal/auction"
)

// AuctionStats summarizes a Monte-Carlo sweep of the simulator auction at a
// fixed (N, K): mean winner payment and mean winner score, the quantities of
// Figs. 9(b) and 10(b).
type AuctionStats struct {
	N, K        int
	MeanPayment float64
	MeanScore   float64
}

// auctionRoundSample draws one population of θ's, has every node submit its
// Nash equilibrium bid (qˢ(θ), pˢ(θ)), runs one FMore round, and returns
// the outcome. This is the pure-auction Monte Carlo behind Figs. 9(b),
// 10(b) and 11(b): all bid heterogeneity flows from the private type, as in
// the paper's analysis.
func auctionRoundSample(sa *market, strat *auction.Strategy, n, k int, psi float64, rng *rand.Rand) (*auction.Outcome, error) {
	bids := make([]auction.Bid, n)
	for i := 0; i < n; i++ {
		theta := sa.theta.Sample(rng)
		q, p := strat.Bid(theta)
		bids[i] = auction.Bid{NodeID: i, Qualities: q, Payment: p}
	}
	auctioneer, err := auction.NewAuctioneer(auction.Config{Rule: sa.rule, K: k, Psi: psi}, rng)
	if err != nil {
		return nil, err
	}
	out, err := auctioneer.Run(bids)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// SweepAuction measures mean winner payment and score at each (N, K) pair
// over `trials` Monte-Carlo rounds. Exactly one of ns/ks may have length >
// 1; the other is held fixed at its single element.
func SweepAuction(ns, ks []int, trials int, seed int64) ([]AuctionStats, error) {
	if len(ns) == 0 || len(ks) == 0 {
		return nil, fmt.Errorf("sim: empty sweep")
	}
	if trials < 1 {
		trials = 1
	}
	sa, err := newSimulatorAuction()
	if err != nil {
		return nil, err
	}
	var out []AuctionStats
	for _, n := range ns {
		for _, k := range ks {
			if k >= n {
				return nil, fmt.Errorf("sim: sweep point K=%d >= N=%d", k, n)
			}
			strat, err := sa.strategy(n, k)
			if err != nil {
				return nil, fmt.Errorf("sim: strategy at N=%d K=%d: %w", n, k, err)
			}
			rng := rand.New(rand.NewSource(seed + int64(n)*31 + int64(k)*7))
			paySum, scoreSum, cnt := 0.0, 0.0, 0
			for trial := 0; trial < trials; trial++ {
				outc, err := auctionRoundSample(sa, strat, n, k, 1, rng)
				if err != nil {
					return nil, err
				}
				for _, w := range outc.Winners {
					paySum += w.Payment
					scoreSum += w.Score
					cnt++
				}
			}
			st := AuctionStats{N: n, K: k}
			if cnt > 0 {
				st.MeanPayment = paySum / float64(cnt)
				st.MeanScore = scoreSum / float64(cnt)
			}
			out = append(out, st)
		}
	}
	return out, nil
}

// PsiTopCounts measures, for each ψ, how many of the K selected nodes rank
// in the top-10/top-20/top-30 by score — Fig. 11(b).
type PsiTopCounts struct {
	Psi                   float64
	Top10, Top20, Top30   float64
	MeanSelectedScoreRank float64
}

// SweepPsi runs the ψ-FMore selection Monte Carlo at fixed N and K.
func SweepPsi(psis []float64, n, k, trials int, seed int64) ([]PsiTopCounts, error) {
	if len(psis) == 0 {
		return nil, fmt.Errorf("sim: empty psi sweep")
	}
	sa, err := newSimulatorAuction()
	if err != nil {
		return nil, err
	}
	strat, err := sa.strategy(n, k)
	if err != nil {
		return nil, err
	}
	var out []PsiTopCounts
	for _, psi := range psis {
		rng := rand.New(rand.NewSource(seed + int64(psi*1000)))
		var top10, top20, top30, rankSum float64
		count := 0
		for trial := 0; trial < trials; trial++ {
			outc, err := auctionRoundSample(sa, strat, n, k, psi, rng)
			if err != nil {
				return nil, err
			}
			// Rank all bidders by score, descending.
			type ranked struct {
				id    int
				score float64
			}
			all := make([]ranked, len(outc.Scores))
			for i, s := range outc.Scores {
				all[i] = ranked{id: i, score: s}
			}
			sort.Slice(all, func(a, b int) bool { return all[a].score > all[b].score })
			rankOf := make(map[int]int, len(all))
			for pos, r := range all {
				rankOf[r.id] = pos + 1
			}
			for _, w := range outc.Winners {
				rank := rankOf[w.Bid.NodeID]
				if rank <= 10 {
					top10++
				}
				if rank <= 20 {
					top20++
				}
				if rank <= 30 {
					top30++
				}
				rankSum += float64(rank)
				count++
			}
		}
		pt := PsiTopCounts{Psi: psi}
		if trials > 0 {
			pt.Top10 = top10 / float64(trials)
			pt.Top20 = top20 / float64(trials)
			pt.Top30 = top30 / float64(trials)
		}
		if count > 0 {
			pt.MeanSelectedScoreRank = rankSum / float64(count)
		}
		out = append(out, pt)
	}
	return out, nil
}

// ScoreDistribution pools scores into `bins` equal-width buckets and
// reports, per bucket, the proportion (%) of scores falling in it —
// Fig. 8's axes.
type ScoreDistribution struct {
	// BinCenters are the bucket mid-points (score axis).
	BinCenters []float64
	// Proportion[i] is the percentage of scores in bucket i.
	Proportion []float64
}

// NewScoreDistribution histograms the given scores.
func NewScoreDistribution(scores []float64, bins int) ScoreDistribution {
	if bins < 1 {
		bins = 10
	}
	d := ScoreDistribution{
		BinCenters: make([]float64, bins),
		Proportion: make([]float64, bins),
	}
	if len(scores) == 0 {
		return d
	}
	lo, hi := scores[0], scores[0]
	for _, s := range scores {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(bins)
	for i := range d.BinCenters {
		d.BinCenters[i] = lo + (float64(i)+0.5)*width
	}
	for _, s := range scores {
		idx := int((s - lo) / width)
		if idx >= bins {
			idx = bins - 1
		}
		if idx < 0 {
			idx = 0
		}
		d.Proportion[idx]++
	}
	for i := range d.Proportion {
		d.Proportion[i] = 100 * d.Proportion[i] / float64(len(scores))
	}
	return d
}
