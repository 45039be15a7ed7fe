// Command edgenode runs one standalone FMore edge node against a remote
// fmore-exchange. It speaks the exchange's versioned /v1 HTTP API through
// the pkg/client SDK: it registers, fetches the job's solved Theorem 1 bid
// curve from the server (the job must carry an equilibrium block),
// subscribes to the server-push round event stream, and bids into every
// round it sees — learning outcomes the moment they close instead of
// long-polling:
//
//	edgenode -exchange-url http://localhost:8780 -job demo -id 3 -rounds 5
//
// The paper's real-deployment experiment (§V-C, Figs. 12-13) is reproduced
// in process by `fmore-bench -figure 12`, not with this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

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
	id := fs.Int("id", 0, "node id (unique per node)")
	seed := fs.Int64("seed", 1, "seed for drawing θ when -theta is 0")
	theta := fs.Float64("theta", 0, "private cost parameter (0 = draw from the job's θ support)")
	exchangeURL := fs.String("exchange-url", "", "exchange base URL, e.g. http://localhost:8780 (required)")
	jobID := fs.String("job", "", "exchange job to bid into (required)")
	rounds := fs.Int("rounds", 0, "rounds to participate in before exiting (0 = until the job closes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exchangeURL == "" || *jobID == "" {
		return errors.New("-exchange-url and -job are required")
	}
	return runExchange(exchangeConfig{
		url:    *exchangeURL,
		jobID:  *jobID,
		nodeID: *id,
		rounds: *rounds,
		theta:  *theta,
		seed:   *seed,
	})
}

// exchangeConfig parameterizes participation in one exchange job.
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
