// Command fmore-cluster runs the paper's real-deployment experiment (§V-C)
// in-process: one aggregator plus N edge nodes over loopback TCP, with the
// deterministic timing model reporting Fig. 13-style durations.
//
// Usage:
//
//	fmore-cluster -nodes 31 -k 8 -rounds 20
//	fmore-cluster -nodes 31 -k 8 -rounds 20 -random   (RandFL baseline)
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"fmore/internal/cluster"
	"fmore/internal/data"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fmore-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fmore-cluster", flag.ContinueOnError)
	nodes := fs.Int("nodes", 31, "edge node count (paper: 31)")
	k := fs.Int("k", 8, "winners per round")
	rounds := fs.Int("rounds", 10, "federated rounds")
	random := fs.Bool("random", false, "RandFL baseline instead of the auction")
	psi := fs.Float64("psi", 1, "psi-FMore admission probability")
	seed := fs.Int64("seed", 1, "seed")
	trainN := fs.Int("train", 2000, "generated training corpus size")
	testN := fs.Int("test", 400, "generated test set size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := cluster.Run(cluster.Config{
		Nodes: *nodes, K: *k, Rounds: *rounds,
		Task:         data.CIFAR10,
		TrainSamples: *trainN, TestSamples: *testN,
		RandomSelection: *random,
		Psi:             *psi,
		Seed:            *seed,
		BreachNodeID:    -1,
		DropNodeID:      -1,
	})
	if err != nil {
		return err
	}

	mode := "FMore"
	if *random {
		mode = "RandFL"
	}
	fmt.Printf("cluster run: %d nodes, K=%d, %d rounds, %s\n", *nodes, *k, *rounds, mode)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "round\taccuracy\tloss\twinners\tpayment\tsim-time(s)\tcum-sim(s)\twall(s)")
	for i, r := range res.Report.Rounds {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%d\t%.3f\t%.2f\t%.2f\t%.2f\n",
			r.Round, r.Accuracy, r.Loss, len(r.SelectedIDs), r.TotalPayment,
			res.SimTimeSec[i], res.CumSimTimeSec[i], r.WallTimeSec)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(res.Report.Blacklisted) > 0 {
		fmt.Printf("blacklisted nodes: %v\n", res.Report.Blacklisted)
	}
	fmt.Printf("final accuracy: %.4f\n", res.Report.FinalAccuracy)
	return nil
}
