// Command edgenode runs one standalone FMore edge node in one of two
// transports behind the same bidding logic:
//
// Exchange mode (-exchange-url): the node speaks the exchange's versioned
// /v1 HTTP API through the pkg/client SDK. It registers, fetches the job's
// solved Theorem 1 bid curve from the server (the job must carry an
// equilibrium block), subscribes to the server-push round event stream, and
// bids into every round it sees — learning outcomes the moment they close
// instead of long-polling:
//
//	edgenode -exchange-url http://localhost:8780 -job demo -id 3 -rounds 5
//
// Legacy TCP mode (default): the original gob/TCP aggregator protocol
// (cmd/aggregator) with local data generation and federated training. The
// gob dialect is kept as an optional transport; new deployments should
// front an exchange:
//
//	edgenode -addr localhost:9000 -id 0 -task mnist-o -data 200 &
//	edgenode -addr localhost:9000 -id 1 -task mnist-o -data 120 &
//	edgenode -addr localhost:9000 -id 2 -task mnist-o -data  80 &
//	edgenode -addr localhost:9000 -id 3 -task mnist-o -data  60
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"fmore/internal/cluster"
	"fmore/internal/data"
	"fmore/internal/transport"
	"fmore/pkg/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgenode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("edgenode", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:9000", "aggregator address")
	id := fs.Int("id", 0, "node id (unique per node)")
	taskName := fs.String("task", "mnist-o", "workload: mnist-o, mnist-f, cifar-10, hpnews")
	dataSize := fs.Int("data", 150, "local dataset size")
	cpu := fs.Float64("cpu", 4, "offered CPU cores (1-8)")
	bandwidth := fs.Float64("bw", 50, "offered bandwidth in Mbps (5-100)")
	seed := fs.Int64("seed", 1, "shared experiment seed")
	epochs := fs.Int("epochs", 1, "local epochs per won round")
	theta := fs.Float64("theta", 0, "private cost parameter (0 = draw randomly)")
	nBidders := fs.Int("bidders", 4, "expected number of competing bidders (for the equilibrium)")
	k := fs.Int("k", 2, "expected number of winners (for the equilibrium)")
	exchangeURL := fs.String("exchange-url", "",
		"exchange base URL (e.g. http://localhost:8780); switches from the gob/TCP aggregator protocol to the /v1 HTTP API")
	jobID := fs.String("job", "", "exchange job to bid into (exchange mode)")
	rounds := fs.Int("rounds", 0, "rounds to participate in before exiting (exchange mode; 0 = until the job closes)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *exchangeURL != "" {
		return runExchange(exchangeConfig{
			url:    *exchangeURL,
			jobID:  *jobID,
			nodeID: *id,
			rounds: *rounds,
			theta:  *theta,
			seed:   *seed,
		})
	}

	task, err := data.ParseTask(*taskName)
	if err != nil {
		return err
	}
	// Private local data: node-specific seed keeps shards distinct across
	// nodes and distinct from the aggregator's test set.
	corpus, err := data.GenerateTask(task, *dataSize, data.NumClasses, *seed+1000+int64(*id))
	if err != nil {
		return err
	}
	model, err := data.NewModel(task, rand.New(rand.NewSource(*seed+2000+int64(*id))))
	if err != nil {
		return err
	}

	// Equilibrium strategy for the deployment market (additive rule
	// 0.4/0.3/0.3 over normalized CPU/bandwidth/data, as in §V-A).
	strategy, err := cluster.SolveDeploymentStrategy(*nBidders, *k)
	if err != nil {
		return err
	}
	myTheta := *theta
	if myTheta == 0 {
		thetaDist, err := cluster.DeploymentTheta()
		if err != nil {
			return err
		}
		myTheta = thetaDist.Sample(rand.New(rand.NewSource(*seed + 3000 + int64(*id))))
	}

	qualities := []float64{*cpu / 8, *bandwidth / 100, float64(*dataSize) / 10000}
	fmt.Printf("node %d: θ=%.3f data=%d bidding p=%.4f q=%.3v\n",
		*id, myTheta, *dataSize, strategy.Payment(myTheta), qualities)

	summary, err := transport.RunClient(transport.ClientConfig{
		Addr:        *addr,
		NodeID:      *id,
		Model:       model,
		Local:       corpus.Train,
		Qualities:   func(int) []float64 { return qualities },
		Payment:     func(int) float64 { return strategy.Payment(myTheta) },
		LocalEpochs: *epochs,
		Seed:        *seed + 4000 + int64(*id),
	})
	if err != nil {
		return err
	}
	fmt.Printf("node %d: rounds=%d won=%d earned=%.4f final-accuracy=%.4f\n",
		*id, summary.RoundsSeen, summary.RoundsWon, summary.TotalEarned, summary.FinalAccuracy)
	return nil
}

// exchangeConfig parameterizes exchange-mode participation.
type exchangeConfig struct {
	url, jobID     string
	nodeID, rounds int
	theta          float64
	seed           int64
}

// runExchange participates in a hosted exchange job over the /v1 API: it
// registers, obtains its bid from the job's server-solved strategy curve,
// and rides the server-push event stream — bidding on every round_open,
// settling on every round_closed.
func runExchange(cfg exchangeConfig) error {
	if cfg.jobID == "" {
		return errors.New("exchange mode needs -job")
	}
	c, err := client.New(cfg.url)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := c.Register(ctx, cfg.nodeID, fmt.Sprintf("edgenode-%d", cfg.nodeID)); err != nil {
		return fmt.Errorf("registering: %w", err)
	}
	job, err := c.Job(ctx, cfg.jobID)
	if err != nil {
		return fmt.Errorf("resolving job: %w", err)
	}
	myTheta := cfg.theta
	bidder, err := c.NewBidder(ctx, cfg.jobID, cfg.nodeID, myTheta)
	if err != nil {
		if client.ErrorCode(err) == client.CodeNoStrategy {
			return fmt.Errorf("fetching strategy: %w (create the job with an \"equilibrium\" block so the exchange can serve its bid curve)", err)
		}
		return fmt.Errorf("fetching strategy: %w", err)
	}
	if myTheta == 0 {
		// Draw the private type from the game's own θ support (the curve
		// advertises it), so the equilibrium bid is interior, not clamped
		// to an endpoint.
		s := bidder.Strategy()
		u := rand.New(rand.NewSource(cfg.seed + 3000 + int64(cfg.nodeID))).Float64()
		myTheta = s.ThetaLo + u*(s.ThetaHi-s.ThetaLo)
		bidder = bidder.WithTheta(myTheta)
	}
	fmt.Printf("node %d: θ=%.3f bidding the exchange-solved strategy (p=%.4f)\n",
		cfg.nodeID, myTheta, bidder.Bid().Payment)

	// Watch from the currently collecting round: the stream opens with a
	// round_open for it, which triggers the first bid; older history is not
	// replayed (this node was not part of it).
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watch, err := c.WatchRounds(wctx, cfg.jobID, client.WatchOptions{AfterRound: job.Round - 1})
	if err != nil {
		return fmt.Errorf("watching rounds: %w", err)
	}
	seen, won := 0, 0
	earned := 0.0
	for ev := range watch.Events() {
		switch ev.Type {
		case client.RoundOpen:
			if _, err := c.SubmitBid(ctx, cfg.jobID, bidder.Bid()); err != nil &&
				client.ErrorCode(err) != client.CodeDuplicateBid {
				fmt.Printf("node %d: round %d bid rejected: %v\n", cfg.nodeID, ev.Round, err)
			}
		case client.RoundClosed:
			seen++
			if ev.Outcome.Error != "" {
				fmt.Printf("node %d: round %d failed: %s\n", cfg.nodeID, ev.Round, ev.Outcome.Error)
			} else if p, ok := ev.Outcome.Won(cfg.nodeID); ok {
				won++
				earned += p
				fmt.Printf("node %d: round %d WON, paid %.4f\n", cfg.nodeID, ev.Round, p)
			} else {
				fmt.Printf("node %d: round %d lost (%d bids)\n", cfg.nodeID, ev.Round, ev.Outcome.NumBids)
			}
			if cfg.rounds > 0 && seen >= cfg.rounds {
				cancel()
			}
		case client.JobClosed:
			fmt.Printf("node %d: job %s closed\n", cfg.nodeID, cfg.jobID)
		}
	}
	if err := watch.Err(); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	fmt.Printf("node %d: rounds=%d won=%d earned=%.4f\n", cfg.nodeID, seen, won, earned)
	return nil
}
