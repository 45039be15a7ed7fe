package auction

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fmore/internal/dist"
)

// TestWinnerDeterminationInvariantsProperty checks structural invariants of
// winner determination over randomized bid pools:
//   - at most K winners, never more than the IR-feasible bids;
//   - winners sorted by descending score;
//   - every winner's score >= every non-winner's score;
//   - Scores records one entry per input bid.
func TestWinnerDeterminationInvariantsProperty(t *testing.T) {
	rule, err := NewAdditive(0.7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		k := 1 + int(rawK)%10
		bids := make([]Bid, n)
		for i := range bids {
			bids[i] = Bid{
				NodeID:    i,
				Qualities: []float64{rng.Float64(), rng.Float64()},
				Payment:   rng.Float64() * 1.2, // some scores go negative
			}
		}
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: FirstPrice}, rng)
		if err != nil {
			return false
		}
		if len(out.Scores) != n {
			return false
		}
		if len(out.Winners) > k {
			return false
		}
		feasible := 0
		for _, s := range out.Scores {
			if s >= 0 {
				feasible++
			}
		}
		if want := min(k, feasible); len(out.Winners) != want {
			return false
		}
		for i := 1; i < len(out.Winners); i++ {
			if out.Winners[i].Score > out.Winners[i-1].Score+1e-12 {
				return false
			}
		}
		if len(out.Winners) == 0 {
			return true
		}
		worstWinner := out.Winners[len(out.Winners)-1].Score
		winnerIDs := map[int]bool{}
		for _, w := range out.Winners {
			winnerIDs[w.Bid.NodeID] = true
		}
		for i, s := range out.Scores {
			if !winnerIDs[i] && s > worstWinner+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestPsiFMoreWinnersSubsetOfFMoreEligibleProperty: ψ-FMore only ever picks
// IR-feasible bids, and with enough eligible bids it fills exactly K.
func TestPsiFMoreWinnersSubsetOfFMoreEligibleProperty(t *testing.T) {
	rule, err := NewAdditive(1)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		k := 1 + rng.Intn(5)
		psi := 0.2 + 0.8*rng.Float64()
		bids := make([]Bid, n)
		for i := range bids {
			bids[i] = Bid{NodeID: i, Qualities: []float64{rng.Float64()}, Payment: rng.Float64() * 0.5}
		}
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Psi: psi, Payment: FirstPrice}, rng)
		if err != nil {
			return false
		}
		eligible := 0
		for _, s := range out.Scores {
			if s >= 0 {
				eligible++
			}
		}
		if eligible >= k && len(out.Winners) != k {
			return false
		}
		for _, w := range out.Winners {
			if w.Score < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEquilibriumWinRateMatchesExactOrderStatistics simulates many auction
// rounds where every node bids its equilibrium strategy, and compares a
// probe type's empirical win frequency to the two win-probability models.
// The empirical rate must match the exact order-statistic form; the paper's
// Eq (9) (which drops binomial coefficients) is reported for contrast —
// this is the quantitative content of the WinProbModel ablation.
func TestEquilibriumWinRateMatchesExactOrderStatistics(t *testing.T) {
	const n, k = 8, 3
	cfg := analyticCase(t, n, k, SolverQuadrature, WinProbPaper)
	s, err := SolveEquilibrium(cfg)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const trials = 30000
	probes := []float64{1.15, 1.4, 1.65}
	for _, probe := range probes {
		probeScore := s.ScoreAt(probe)
		wins := 0
		for trial := 0; trial < trials; trial++ {
			// Count how many of the N−1 rivals outscore the probe.
			better := 0
			for r := 0; r < n-1; r++ {
				if s.ScoreAt(theta.Sample(rng)) > probeScore {
					better++
				}
			}
			if better < k {
				wins++
			}
		}
		empirical := float64(wins) / trials
		// H(u(probe)) = Pr(a rival scores below the probe). Scores strictly
		// decrease in θ, so that event is {rival θ > probe} = 1 − F(probe).
		h := 1 - theta.CDF(probe)
		exact := winProbability(h, n, k, WinProbExact)
		paper := winProbability(h, n, k, WinProbPaper)
		if math.Abs(empirical-exact) > 0.02 {
			t.Errorf("θ=%v: empirical win rate %.4f vs exact order-stat %.4f", probe, empirical, exact)
		}
		t.Logf("θ=%v: empirical %.4f, exact %.4f, paper Eq(9) %.4f (approximation gap %.4f)",
			probe, empirical, exact, paper, math.Abs(paper-empirical))
	}
}

// TestSecondPriceWeaklyDominatesForWinners: under identical bids, no winner
// is paid less by the second-price rule than the first-price rule.
func TestSecondPriceWeaklyDominatesForWinnersProperty(t *testing.T) {
	rule, err := NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		k := 1 + rng.Intn(4)
		bids := make([]Bid, n)
		for i := range bids {
			bids[i] = Bid{NodeID: i, Qualities: []float64{rng.Float64(), rng.Float64()}, Payment: rng.Float64() * 0.3}
		}
		first, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: FirstPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		second, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: SecondPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if len(first.Winners) != len(second.Winners) {
			return false
		}
		for i := range first.Winners {
			if second.Winners[i].Payment < first.Winners[i].Payment-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEquilibriumPaymentMonotoneInTheta: under single-crossing costs the
// equilibrium payment falls with the cost type (cheaper nodes both promise
// more quality and extract more rent).
func TestEquilibriumPaymentMonotoneInTheta(t *testing.T) {
	s, err := SolveEquilibrium(analyticCase(t, 10, 3, SolverQuadrature, WinProbPaper))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.ThetaSupport()
	prev := math.Inf(1)
	for i := 0; i <= 32; i++ {
		theta := lo + (hi-lo)*float64(i)/32
		p := s.Payment(theta)
		if p > prev+1e-9 {
			t.Errorf("payment rose with θ at %v: %v > %v", theta, p, prev)
		}
		prev = p
	}
}

// TestScoreDistributionOfWinnersStochasticallyDominates: across random
// populations at equilibrium, winner scores first-order dominate the
// population's (the selection effect behind Fig. 8).
func TestWinnerScoresDominatePopulationScores(t *testing.T) {
	const n, k = 30, 8
	cfg := analyticCase(t, n, k, SolverQuadrature, WinProbPaper)
	s, err := SolveEquilibrium(cfg)
	if err != nil {
		t.Fatal(err)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var all, winners []float64
	for trial := 0; trial < 200; trial++ {
		bids := make([]Bid, n)
		for i := range bids {
			th := theta.Sample(rng)
			q, p := s.Bid(th)
			bids[i] = Bid{NodeID: i, Qualities: q, Payment: p}
		}
		out, err := Select(SelectionRequest{Rule: cfg.Rule, Bids: bids, K: k, Payment: FirstPrice}, rng)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out.Scores...)
		for _, w := range out.Winners {
			winners = append(winners, w.Score)
		}
	}
	median := func(v []float64) float64 {
		c := append([]float64(nil), v...)
		sort.Float64s(c)
		return c[len(c)/2]
	}
	if median(winners) <= median(all) {
		t.Errorf("winner median score %v should exceed population median %v",
			median(winners), median(all))
	}
}
