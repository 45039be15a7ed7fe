// Command aggregator runs a standalone FMore aggregator server: it listens
// for edge-node registrations (cmd/edgenode) and drives the auction-based
// federated training of Algorithm 1 over real TCP.
//
// The aggregator and the edge nodes agree on the task through the -task and
// -seed flags: the aggregator generates the held-out test set, each node
// generates its private local shard.
//
// Usage:
//
//	aggregator -addr :9000 -nodes 4 -k 2 -rounds 10 -task mnist-o
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux served at -pprof-addr
	"os"

	"fmore/internal/cluster"
	"fmore/internal/data"
	"fmore/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aggregator:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aggregator", flag.ContinueOnError)
	addr := fs.String("addr", ":9000", "listen address")
	nodes := fs.Int("nodes", 4, "number of edge nodes to wait for")
	k := fs.Int("k", 2, "winners per round")
	rounds := fs.Int("rounds", 10, "federated rounds")
	taskName := fs.String("task", "mnist-o", "workload: mnist-o, mnist-f, cifar-10, hpnews")
	testN := fs.Int("test", 300, "test set size")
	seed := fs.Int64("seed", 1, "shared experiment seed")
	random := fs.Bool("random", false, "RandFL baseline selection")
	psi := fs.Float64("psi", 1, "psi-FMore admission probability")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "aggregator: pprof:", err)
			}
		}()
	}

	task, err := data.ParseTask(*taskName)
	if err != nil {
		return err
	}
	// The aggregator only needs the test split; the minimal train split is
	// discarded. Edge nodes derive their private shards from node-specific
	// seeds, so train and test data stay distinct.
	corpus, err := data.GenerateTask(task, data.NumClasses, *testN, *seed)
	if err != nil {
		return err
	}
	global, err := data.NewModel(task, rand.New(rand.NewSource(*seed+13)))
	if err != nil {
		return err
	}
	rule, err := cluster.DeploymentRule()
	if err != nil {
		return err
	}
	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer listener.Close() //nolint:errcheck // process exit follows

	fmt.Printf("aggregator listening on %s, waiting for %d nodes\n", listener.Addr(), *nodes)
	server, err := transport.NewServer(transport.ServerConfig{
		Listener:        listener,
		ExpectNodes:     *nodes,
		Rounds:          *rounds,
		K:               *k,
		Rule:            rule,
		Psi:             *psi,
		Global:          global,
		Test:            corpus.Test,
		Seed:            *seed,
		RandomSelection: *random,
	})
	if err != nil {
		return err
	}
	report, err := server.Run()
	if err != nil {
		return err
	}
	for _, r := range report.Rounds {
		fmt.Printf("round %2d: accuracy %.4f loss %.4f winners %v payment %.3f (%.2fs)\n",
			r.Round, r.Accuracy, r.Loss, r.SelectedIDs, r.TotalPayment, r.WallTimeSec)
	}
	if len(report.Blacklisted) > 0 {
		fmt.Printf("blacklisted: %v\n", report.Blacklisted)
	}
	fmt.Printf("final accuracy: %.4f\n", report.FinalAccuracy)
	return nil
}
