// Command fmore-sim runs one federated-learning simulation experiment (the
// smart simulator of §V-A) and prints the per-round trace.
//
// Usage:
//
//	fmore-sim -task mnist-o -method fmore -n 100 -k 20 -rounds 20
//	fmore-sim -task hpnews -method randfl -rounds 10
//	fmore-sim -task mnist-f -method psi-fmore -psi 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"fmore/internal/data"
	"fmore/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fmore-sim:", err)
		os.Exit(1)
	}
}

func parseMethod(s string) (sim.Method, error) {
	switch s {
	case "fmore":
		return sim.MethodFMore, nil
	case "randfl":
		return sim.MethodRandFL, nil
	case "fixfl":
		return sim.MethodFixFL, nil
	case "psi-fmore":
		return sim.MethodPsiFMore, nil
	default:
		return 0, fmt.Errorf("unknown method %q (fmore, randfl, fixfl, psi-fmore)", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fmore-sim", flag.ContinueOnError)
	taskName := fs.String("task", "mnist-o", "workload: mnist-o, mnist-f, cifar-10, hpnews")
	methodName := fs.String("method", "fmore", "selection: fmore, randfl, fixfl, psi-fmore")
	n := fs.Int("n", 40, "population size N")
	k := fs.Int("k", 8, "winners per round K")
	rounds := fs.Int("rounds", 10, "federated rounds")
	psi := fs.Float64("psi", 0.5, "psi for psi-fmore")
	repeats := fs.Int("repeats", 1, "runs to average")
	seed := fs.Int64("seed", 1, "base seed")
	timing := fs.Bool("timing", false, "attach the simulated timing model")
	if err := fs.Parse(args); err != nil {
		return err
	}

	task, err := data.ParseTask(*taskName)
	if err != nil {
		return err
	}
	method, err := parseMethod(*methodName)
	if err != nil {
		return err
	}
	scale := sim.QuickScale()
	scale.N, scale.K, scale.Rounds = *n, *k, *rounds
	scale.Repeats = *repeats
	scale.Seed = *seed
	cfg := sim.ExperimentConfig{
		Task: task, Method: method, Scale: scale,
		Psi: *psi, WithTiming: *timing,
	}
	if method != sim.MethodPsiFMore {
		cfg.Psi = 1
	}
	avg, err := sim.RunAveraged(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("task=%s method=%s N=%d K=%d rounds=%d repeats=%d\n",
		task, avg.Selector, *n, *k, *rounds, *repeats)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "round\taccuracy\tloss\tcum-time(s)")
	for i := 0; i < *rounds; i++ {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%.2f\n", i+1, avg.Accuracy[i], avg.Loss[i], avg.CumTime[i])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if avg.MeanPayment > 0 {
		fmt.Printf("mean winner payment: %.4f  mean winner score: %.4f\n",
			avg.MeanPayment, avg.MeanWinnerScore)
	}
	return nil
}
