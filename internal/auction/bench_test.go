package auction

import (
	"math/rand"
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
