package auction_test

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"fmore/internal/auction"
	"fmore/internal/dist"
)

// Example_walkthrough is the five-node example of §III-B (Fig. 3),
// reproduced bid for bid — both rounds, the published score tables, and the
// winner sets {A, D, E} then {A, C, E} — followed by the Nash equilibrium
// strategy §III-B defers to §IV ("we will provide the Nash equilibrium
// strategy to a rational node in Section IV").
func Example_walkthrough() {
	// The walk-through market: data size on [1000, 5000], bandwidth on
	// [5, 100] Mb, min-max normalized, scored by S = min{0.5 q1, 0.5 q2} − p.
	inner, err := auction.NewLeontief(0.5, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	rule, err := auction.NewNormalized(inner, []float64{1000, 5}, []float64{5000, 100})
	if err != nil {
		log.Fatal(err)
	}
	auctioneer, err := auction.NewAuctioneer(auction.Config{Rule: rule, K: 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	names := []string{"A", "B", "C", "D", "E"}
	roundBids := [][]auction.Bid{
		{
			{NodeID: 0, Qualities: []float64{4000, 85}, Payment: 0.20},
			{NodeID: 1, Qualities: []float64{3000, 35}, Payment: 0.10},
			{NodeID: 2, Qualities: []float64{3500, 75}, Payment: 0.18},
			{NodeID: 3, Qualities: []float64{5000, 85}, Payment: 0.20},
			{NodeID: 4, Qualities: []float64{5000, 100}, Payment: 0.20},
		},
		{
			{NodeID: 0, Qualities: []float64{4000, 85}, Payment: 0.16},
			{NodeID: 1, Qualities: []float64{3500, 45}, Payment: 0.10},
			{NodeID: 2, Qualities: []float64{4000, 80}, Payment: 0.15},
			{NodeID: 3, Qualities: []float64{4000, 80}, Payment: 0.20},
			{NodeID: 4, Qualities: []float64{5000, 100}, Payment: 0.30},
		},
	}
	for r, bids := range roundBids {
		outcome, err := auctioneer.Run(bids)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d scores:\n", r+1)
		for i, s := range outcome.Scores {
			fmt.Printf("  %s: %.4f (bid data=%v, bw=%vMb, p=%v)\n",
				names[i], s, bids[i].Qualities[0], bids[i].Qualities[1], bids[i].Payment)
		}
		winners := make([]string, len(outcome.Winners))
		for i, w := range outcome.Winners {
			winners[i] = fmt.Sprintf("%s (pays %.3f)", names[w.Bid.NodeID], w.Payment)
		}
		fmt.Printf("  winners: %s\n\n", strings.Join(winners, "  "))
	}

	// The rational bid: §IV's Theorem 1 equilibrium for a comparable
	// single-dimensional market, solved with the Euler method exactly as
	// Algorithm 1 line 7 prescribes.
	rule1d, err := auction.NewCobbDouglas(2, 0.5) // s(q) = 2√q
	if err != nil {
		log.Fatal(err)
	}
	cost, err := auction.NewLinearCost(1)
	if err != nil {
		log.Fatal(err)
	}
	theta, err := dist.NewUniform(1, 2)
	if err != nil {
		log.Fatal(err)
	}
	strategy, err := auction.SolveEquilibrium(auction.EquilibriumConfig{
		Rule: rule1d, Cost: cost, Theta: theta,
		N: 5, K: 3,
		QLo: []float64{0}, QHi: []float64{1.5},
		Solver: auction.SolverEuler,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Nash equilibrium strategy (N=5, K=3, s=2√q, c=θq, θ~U[1,2]):")
	fmt.Println("  θ      q*(θ)   p*(θ)   score u(θ)  win prob  expected profit")
	for _, th := range []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0} {
		q, p := strategy.Bid(th)
		fmt.Printf("  %.2f   %.4f  %.4f  %.4f      %.3f     %.4f\n",
			th, q[0], p, strategy.ScoreAt(th), strategy.WinProbability(th), strategy.ExpectedProfit(th))
	}
	// Output:
	// round 1 scores:
	//   A: 0.1750 (bid data=4000, bw=85Mb, p=0.2)
	//   B: 0.0579 (bid data=3000, bw=35Mb, p=0.1)
	//   C: 0.1325 (bid data=3500, bw=75Mb, p=0.18)
	//   D: 0.2211 (bid data=5000, bw=85Mb, p=0.2)
	//   E: 0.3000 (bid data=5000, bw=100Mb, p=0.2)
	//   winners: E (pays 0.200)  D (pays 0.200)  A (pays 0.200)
	//
	// round 2 scores:
	//   A: 0.2150 (bid data=4000, bw=85Mb, p=0.16)
	//   B: 0.1105 (bid data=3500, bw=45Mb, p=0.1)
	//   C: 0.2250 (bid data=4000, bw=80Mb, p=0.15)
	//   D: 0.1750 (bid data=4000, bw=80Mb, p=0.2)
	//   E: 0.2000 (bid data=5000, bw=100Mb, p=0.3)
	//   winners: C (pays 0.150)  A (pays 0.160)  E (pays 0.300)
	//
	// Nash equilibrium strategy (N=5, K=3, s=2√q, c=θq, θ~U[1,2]):
	//   θ      q*(θ)   p*(θ)   score u(θ)  win prob  expected profit
	//   1.00   1.0000  1.1978  1.0000      1.000     0.1978
	//   1.20   0.6945  0.9651  0.8333      0.538     0.0709
	//   1.40   0.5102  0.7992  0.7143      0.274     0.0232
	//   1.60   0.3906  0.6734  0.6250      0.122     0.0059
	//   1.80   0.3086  0.5758  0.5556      0.034     0.0007
	//   2.00   0.2500  0.5000  0.5000      0.000     0.0000
}

// Example_guidance is Proposition 4: how the aggregator steers the mix of
// procured resources by tuning the Cobb–Douglas exponents α, and how it
// estimates the market's cost coefficients β̃ from bidding history.
func Example_guidance() {
	// Market estimates: resource 0 (data) costs 60% of a node's budget
	// share, resource 1 (bandwidth) 40%.
	betaTilde := []float64{0.6, 0.4}

	fmt.Println("Proposition 4: optimal resource mix under s(q) = q1^a1 · q2^a2,")
	fmt.Println("cost c = θ(0.6 q1 + 0.4 q2), budget 100, θ = 1.25")
	fmt.Println("  α            mix(data, bandwidth)    quantities")
	for _, alpha := range [][]float64{{0.5, 0.5}, {0.7, 0.3}, {0.3, 0.7}} {
		mix, err := auction.OptimalMix(alpha, betaTilde)
		if err != nil {
			log.Fatal(err)
		}
		q, err := auction.OptimalQuantities(alpha, betaTilde, 1.25, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %.1f/%.1f      %.3f / %.3f           %.1f / %.1f\n",
			alpha[0], alpha[1], mix[0], mix[1], q[0], q[1])
	}

	// Inverse problem: the aggregator wants twice as much data as bandwidth.
	desired := []float64{2, 1}
	alpha, err := auction.CalibrateAlpha(desired, betaTilde)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nto procure data:bandwidth = 2:1, set α = (%.3f, %.3f)\n", alpha[0], alpha[1])
	mix, err := auction.OptimalMix(alpha, betaTilde)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("check: resulting mix = %.3f / %.3f (ratio %.2f)\n", mix[0], mix[1], mix[0]/mix[1])

	// Estimating β̃ from the public market: observed winning bids follow
	// p ≈ θ̄(β̃1 q1 + β̃2 q2); the estimator recovers the proportions.
	rng := rand.New(rand.NewSource(3))
	var qs [][]float64
	var ps []float64
	for i := 0; i < 300; i++ {
		q := []float64{rng.Float64() * 5, rng.Float64() * 5}
		p := 1.3 * (0.6*q[0] + 0.4*q[1]) * (1 + 0.05*(rng.Float64()-0.5))
		qs = append(qs, q)
		ps = append(ps, p)
	}
	est, err := auction.EstimateBetaTilde(qs, ps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nβ̃ estimated from 300 observed bids: (%.3f, %.3f), true (0.6, 0.4)\n", est[0], est[1])
	// Output:
	// Proposition 4: optimal resource mix under s(q) = q1^a1 · q2^a2,
	// cost c = θ(0.6 q1 + 0.4 q2), budget 100, θ = 1.25
	//   α            mix(data, bandwidth)    quantities
	//   0.5/0.5      0.400 / 0.600           66.7 / 100.0
	//   0.7/0.3      0.609 / 0.391           93.3 / 60.0
	//   0.3/0.7      0.222 / 0.778           40.0 / 140.0
	//
	// to procure data:bandwidth = 2:1, set α = (0.750, 0.250)
	// check: resulting mix = 0.667 / 0.333 (ratio 2.00)
	//
	// β̃ estimated from 300 observed bids: (0.600, 0.400), true (0.6, 0.4)
}
