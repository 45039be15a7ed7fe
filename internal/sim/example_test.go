//go:build !race

// These examples train models for seconds, and under -race for tens of
// seconds. sim, fl and ml start no goroutines, so the race detector has
// nothing to check in them: the file is left out of -race builds.

package sim_test

import (
	"fmt"
	"log"
	"math/rand"

	"fmore/internal/auction"
	"fmore/internal/data"
	"fmore/internal/sim"
)

// Example_quickstart runs one FMore auction round and a short federated
// training with FMore selection, end to end.
func Example_quickstart() {
	// Part 1: one standalone auction round. The aggregator broadcasts
	// S(q1, q2, p) = 0.6 q1 + 0.4 q2 − p and will select K = 2 winners.
	rule, err := auction.NewAdditive(0.6, 0.4)
	if err != nil {
		log.Fatal(err)
	}
	auctioneer, err := auction.NewAuctioneer(auction.Config{Rule: rule, K: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	bids := []auction.Bid{
		{NodeID: 0, Qualities: []float64{0.9, 0.8}, Payment: 0.30},
		{NodeID: 1, Qualities: []float64{0.7, 0.9}, Payment: 0.20},
		{NodeID: 2, Qualities: []float64{0.4, 0.5}, Payment: 0.05},
		{NodeID: 3, Qualities: []float64{0.8, 0.3}, Payment: 0.40},
	}
	outcome, err := auctioneer.Run(bids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("auction winners (best score first):")
	for _, w := range outcome.Winners {
		fmt.Printf("  node %d: score %.3f, paid %.3f\n", w.Bid.NodeID, w.Score, w.Payment)
	}
	fmt.Printf("aggregator profit: %.3f\n\n", outcome.AggregatorProfit)

	// Part 2: a short federated training with FMore selection.
	scale := sim.QuickScale()
	scale.Rounds = 5
	avg, err := sim.RunAveraged(sim.ExperimentConfig{
		Task:   data.MNISTO,
		Method: sim.MethodFMore,
		Scale:  scale,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated training on %s with %s selection:\n", data.MNISTO, avg.Selector)
	for i, acc := range avg.Accuracy {
		fmt.Printf("  round %d: accuracy %.3f, loss %.3f\n", i+1, acc, avg.Loss[i])
	}
	fmt.Printf("mean winner payment %.4f, mean winner score %.4f\n",
		avg.MeanPayment, avg.MeanWinnerScore)
	// Output:
	// auction winners (best score first):
	//   node 1: score 0.580, paid 0.200
	//   node 0: score 0.560, paid 0.300
	// aggregator profit: 1.140
	//
	// federated training on mnist-o with FMore selection:
	//   round 1: accuracy 0.520, loss 1.783
	//   round 2: accuracy 0.820, loss 0.654
	//   round 3: accuracy 0.870, loss 0.329
	//   round 4: accuracy 1.000, loss 0.074
	//   round 5: accuracy 1.000, loss 0.026
	// mean winner payment 1.6238, mean winner score 11.7424
}

// Example_psiExtension is ψ-FMore (§III-C): in the small-data regime,
// admitting nodes with probability ψ < 1 trades selection pressure for data
// diversity. It prints the winner-set fill probability Pr(ψ) in both the
// paper's closed form and the exact negative-binomial form, then contrasts
// selection concentration and training behaviour across ψ.
func Example_psiExtension() {
	const n, k = 100, 20
	fmt.Printf("winner-set fill probability Pr(ψ) at N=%d, K=%d:\n", n, k)
	fmt.Println("  ψ      paper Eq.   exact neg-binomial")
	for _, psi := range []float64{0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		fmt.Printf("  %.1f    %.6f    %.6f\n", psi,
			auction.PaperSelectionProbability(n, k, psi),
			auction.ExactSelectionProbability(n, k, psi))
	}

	fmt.Println("\nselection concentration (Monte Carlo, of K=20 selected):")
	counts, err := sim.SweepPsi([]float64{0.2, 0.5, 0.8, 0.95}, n, k, 60, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ψ      top-10  top-20  top-30  mean-rank")
	for _, c := range counts {
		fmt.Printf("  %.2f   %5.1f   %5.1f   %5.1f   %6.1f\n",
			c.Psi, c.Top10, c.Top20, c.Top30, c.MeanSelectedScoreRank)
	}

	// Training in the small-data regime: low ψ diversifies, high ψ races.
	scale := sim.QuickScale()
	scale.Rounds = 6
	scale.MaxNodeData = scale.MinNodeData * 2
	scale.MaxSamplesPerRound = scale.MinNodeData
	fmt.Println("\nsmall-data federated training (accuracy per round):")
	fmt.Println("round   ψ=0.3   ψ=0.9")
	var histories []*sim.AvgHistory
	for _, psi := range []float64{0.3, 0.9} {
		avg, err := sim.RunAveraged(sim.ExperimentConfig{
			Task: data.MNISTF, Method: sim.MethodPsiFMore, Psi: psi, Scale: scale,
		})
		if err != nil {
			log.Fatal(err)
		}
		histories = append(histories, avg)
	}
	for i := 0; i < scale.Rounds; i++ {
		fmt.Printf("%5d   %.3f   %.3f\n", i+1, histories[0].Accuracy[i], histories[1].Accuracy[i])
	}
	// Output:
	// winner-set fill probability Pr(ψ) at N=100, K=20:
	//   ψ      paper Eq.   exact neg-binomial
	//   0.2    1.000000    0.539839
	//   0.3    1.000000    0.991113
	//   0.5    1.000000    1.000000
	//   0.7    1.000000    1.000000
	//   0.9    1.000000    1.000000
	//   1.0    1.000000    1.000000
	//
	// selection concentration (Monte Carlo, of K=20 selected):
	//   ψ      top-10  top-20  top-30  mean-rank
	//   0.20     3.0     5.7     7.9     42.3
	//   0.50     5.3    10.4    15.3     20.3
	//   0.80     7.8    15.8    19.9     13.3
	//   0.95     9.4    19.0    20.0     11.1
	//
	// small-data federated training (accuracy per round):
	// round   ψ=0.3   ψ=0.9
	//     1   0.123   0.113
	//     2   0.157   0.153
	//     3   0.180   0.177
	//     4   0.240   0.223
	//     5   0.233   0.250
	//     6   0.273   0.280
}

// Example_nonIID is a compact version of Figures 4-7: FMore vs RandFL vs
// FixFL on MNIST-F for 8 rounds, showing the accuracy gap that auction-based
// selection opens on heterogeneous edge data.
func Example_nonIID() {
	const task, rounds = data.MNISTF, 8
	scale := sim.QuickScale()
	scale.Rounds = rounds
	results := map[sim.Method]*sim.AvgHistory{}
	for _, method := range []sim.Method{sim.MethodFMore, sim.MethodRandFL, sim.MethodFixFL} {
		avg, err := sim.RunAveraged(sim.ExperimentConfig{Task: task, Method: method, Scale: scale})
		if err != nil {
			log.Fatal(err)
		}
		results[method] = avg
	}

	fmt.Printf("accuracy per round on %s (N=%d, K=%d):\n", task, scale.N, scale.K)
	fmt.Println("round   FMore   RandFL  FixFL")
	for i := 0; i < rounds; i++ {
		fmt.Printf("%5d   %.3f   %.3f   %.3f\n", i+1,
			results[sim.MethodFMore].Accuracy[i],
			results[sim.MethodRandFL].Accuracy[i],
			results[sim.MethodFixFL].Accuracy[i])
	}

	fm, rd := results[sim.MethodFMore], results[sim.MethodRandFL]
	target := rd.FinalAccuracy()
	fmt.Printf("\nrounds to reach RandFL's final accuracy (%.3f): FMore %.1f vs RandFL %.1f\n",
		target, fm.RoundsToAccuracy(target), rd.RoundsToAccuracy(target))
	fmt.Printf("final accuracy: FMore %.3f, RandFL %.3f, FixFL %.3f\n",
		fm.FinalAccuracy(), rd.FinalAccuracy(), results[sim.MethodFixFL].FinalAccuracy())
	// Output:
	// accuracy per round on mnist-f (N=40, K=8):
	// round   FMore   RandFL  FixFL
	//     1   0.227   0.103   0.100
	//     2   0.453   0.230   0.107
	//     3   0.603   0.253   0.123
	//     4   0.807   0.607   0.407
	//     5   0.837   0.643   0.230
	//     6   0.873   0.637   0.477
	//     7   0.890   0.760   0.283
	//     8   0.880   0.687   0.647
	//
	// rounds to reach RandFL's final accuracy (0.687): FMore 4.0 vs RandFL 7.0
	// final accuracy: FMore 0.880, RandFL 0.687, FixFL 0.647
}
