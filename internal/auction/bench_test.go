package auction

import (
	"math/rand"
	"strconv"
	"testing"

	"fmore/internal/dist"
)

func benchEquilibriumConfig(b *testing.B, n, k int) EquilibriumConfig {
	b.Helper()
	rule, err := NewCobbDouglas(25, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cost, err := NewLinearCost(0.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return EquilibriumConfig{
		Rule: rule, Cost: cost, Theta: theta,
		N: n, K: k,
		QLo: []float64{0, 0}, QHi: []float64{1, 1},
	}
}

// BenchmarkSolveEquilibrium measures the cost of the paper's "linear time"
// strategy computation at the simulator's N=100, K=20.
func BenchmarkSolveEquilibrium(b *testing.B) {
	cfg := benchEquilibriumConfig(b, 100, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEquilibrium(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategyBid measures one node's per-round bid evaluation — the
// hot path of Algorithm 1 line 6-7 once the strategy is precomputed.
func BenchmarkStrategyBid(b *testing.B) {
	s, err := SolveEquilibrium(benchEquilibriumConfig(b, 100, 20))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	thetas := make([]float64, 1024)
	for i := range thetas {
		thetas[i] = 1 + rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Bid(thetas[i%len(thetas)])
	}
}

// BenchmarkSelectOwning measures the aggregator's sort-and-select at the
// paper's population size.
func BenchmarkSelectOwning(b *testing.B) {
	rule, err := NewCobbDouglas(25, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bids := make([]Bid, 100)
	for i := range bids {
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   rng.Float64(),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 20, Payment: FirstPrice}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectPsi measures the ψ-FMore admission walk.
func BenchmarkSelectPsi(b *testing.B) {
	rule, err := NewCobbDouglas(25, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bids := make([]Bid, 100)
	for i := range bids {
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   rng.Float64(),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 20, Psi: 0.6, Payment: FirstPrice}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// megaSlate is the mega_round shape: n three-dimensional bids with
// qualities in [0.05, 1) and payments in [0.05, 0.30).
func megaSlate(n int) []Bid {
	rng := rand.New(rand.NewSource(1))
	bids := make([]Bid, n)
	for i := range bids {
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64(), 0.05 + 0.95*rng.Float64()},
			Payment:   0.05 + 0.25*rng.Float64(),
		}
	}
	return bids
}

// BenchmarkScoreKernel measures ScoreBids per rule family on 128 bids of a
// mega_round slate, scored inline; ns/op divided by 128 is the cost of one
// bid.
func BenchmarkScoreKernel(b *testing.B) {
	additive, err := NewAdditive(0.5, 0.3, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	leontief, err := NewLeontief(0.5, 0.3, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	cobbDouglas, err := NewCobbDouglas(2, 0.5, 0.3, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	bids := megaSlate(128)
	scores := make([]float64, len(bids))
	for _, rule := range []ScoringRule{additive, leontief, cobbDouglas} {
		b.Run(rule.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ScoreBids(rule, bids, scores); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreBids is the evidence for spanMinBids: the mega_round rule
// over slates on both sides of the cut, run at -cpu 1,2,4. At -cpu 1 every
// size is scored inline; above it a slate of 2·spanMinBids bids and more is
// cut into spans. To move the constant, set it to 1 and compare each size's
// -cpu 2 row with its -cpu 1 row (BENCH.md, PR 23, has the table).
func BenchmarkScoreBids(b *testing.B) {
	cobbDouglas, err := NewCobbDouglas(2, 0.5, 0.3, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	var rule ScoringRule = cobbDouglas // boxed once, not per call
	for _, n := range []int{512, 1024, 2048, 4096, 16384} {
		bids := megaSlate(n)
		scores := make([]float64, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ScoreBids(rule, bids, scores); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelect_N16384K64_CobbDouglas_SecondPrice is the mega_round
// selection on a pooled Selector: the scorer, 16,384 tiebreak draws, the
// score-first top-K and the second-price payments. At -cpu 1 the slate is
// scored inline and the steady state allocates nothing; at -cpu P it is cut
// into min(P, 8) spans and allocates one closure per span but the caller's
// own (1 alloc/op at -cpu 2, 3 at -cpu 4).
func BenchmarkSelect_N16384K64_CobbDouglas_SecondPrice(b *testing.B) {
	rule, err := NewCobbDouglas(2, 0.5, 0.3, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	bids := megaSlate(16384)
	req := SelectionRequest{Rule: rule, Bids: bids, K: 64, Payment: SecondPrice}
	rng := rand.New(rand.NewSource(1))
	var sel Selector
	if _, err := sel.Select(req, rng); err != nil { // grow the buffers once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(req, rng); err != nil {
			b.Fatal(err)
		}
	}
}
