// Exchange quickstart, SDK edition: host three concurrent FL jobs on one
// durable auction exchange served over its versioned /v1 HTTP API, and
// drive everything through the pkg/client SDK — 16 edge nodes streaming
// bids into each job, an SSE-watching equilibrium bidder that learns each
// round the moment it closes (push, not polling), per-job outcomes and
// service metrics — then restart the exchange from its write-ahead log and
// read the same outcomes back through the same API.
//
//	go run ./examples/exchange
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"

	"fmore/internal/analytics"
	"fmore/internal/exchange"
	"fmore/pkg/api"
	"fmore/pkg/client"
)

const (
	bidders = 16
	rounds  = 2
	// watcherNode is the extra edge node driven by the event stream.
	watcherNode = 99
)

// serve exposes an exchange over HTTP on loopback — with an analytics
// aggregator riding its firehose so the /stats endpoints answer — and
// returns its base URL plus a teardown.
func serve(ex *exchange.Exchange) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	agg := analytics.New(analytics.Options{})
	detach := ex.Firehose().Attach(agg)
	srv := &http.Server{Handler: analytics.NewHandler(ex, agg, exchange.NewHandler(ex))}
	go srv.Serve(ln) //nolint:errcheck // closed on teardown
	stop := func() {
		srv.Close() //nolint:errcheck // example teardown
		detach()
		ex.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// nodeIDs lists the fleet's node IDs (0..n-1).
func nodeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// A data dir makes the exchange durable: every job spec, outcome and
	// registration lands in a write-ahead log that Open replays.
	dataDir, err := os.MkdirTemp("", "fmore-exchange-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir) //nolint:errcheck // example teardown

	ex, err := exchange.Open(dataDir, exchange.Options{})
	if err != nil {
		log.Fatal(err)
	}
	url, stop, err := serve(ex)
	if err != nil {
		log.Fatal(err)
	}
	c, err := client.New(url)
	if err != nil {
		log.Fatal(err)
	}

	// Three FL tasks with different resource preferences share the exchange:
	// an additive rule (substitutable resources), a Leontief rule
	// (complementary resources), and a Cobb-Douglas rule. The lstm-news job
	// also carries the bidder-side game description, so the exchange serves
	// its edge clients the solved Theorem 1 bid curve over
	// GET /v1/jobs/{id}/strategy instead of each node running the solver.
	specs := []client.JobSpec{
		{ID: "cnn-mnist", Rule: client.RuleSpec{Kind: "additive", Alpha: []float64{0.6, 0.4}}, K: 3, Seed: 1},
		{ID: "cnn-cifar", Rule: client.RuleSpec{Kind: "leontief", Alpha: []float64{1, 1}}, K: 2, Seed: 2},
		{ID: "lstm-news", Rule: client.RuleSpec{Kind: "cobb-douglas", Alpha: []float64{0.5, 0.5}, Scale: 2}, K: 4, Seed: 3,
			Equilibrium: &client.EquilibriumSpec{
				Cost:  client.CostSpec{Kind: "linear", Beta: []float64{0.5, 0.5}},
				Theta: client.DistSpec{Kind: "uniform", Lo: 1, Hi: 2},
				N:     bidders + 1,
				QLo:   []float64{0, 0},
				QHi:   []float64{1, 1},
			}},
	}
	for _, spec := range specs {
		if _, err := c.CreateJob(ctx, spec); err != nil {
			log.Fatal(err)
		}
	}

	strat, err := c.Strategy(ctx, "lstm-news", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("lstm-news equilibrium bid curve (θ → payment), served by the exchange:")
	for _, pt := range strat.Points {
		fmt.Printf("  θ=%.2f  q=(%.2f, %.2f)  p=%.3f\n", pt.Theta, pt.Qualities[0], pt.Qualities[1], pt.Payment)
	}

	// Every node registers once through the API.
	for i := 0; i < bidders; i++ {
		if err := c.Register(ctx, i, fmt.Sprintf("edge-%02d", i)); err != nil {
			log.Fatal(err)
		}
	}

	// The SSE-watching bidder: it subscribes to lstm-news's event stream
	// and bids the server-solved equilibrium strategy on every round_open —
	// outcomes arrive by push the moment the round closes. No polling.
	watchCtx, cancelWatch := context.WithCancel(ctx)
	bidder, err := c.NewBidder(ctx, "lstm-news", watcherNode, 1.25)
	if err != nil {
		log.Fatal(err)
	}
	watch, err := c.WatchRounds(watchCtx, "lstm-news", client.WatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for ev := range watch.Events() {
			switch ev.Type {
			case client.RoundOpen:
				// A duplicate is benign: the previous bid can spill into
				// this round when submission races the main loop's close.
				if _, err := bidder.Submit(watchCtx); err != nil &&
					client.ErrorCode(err) != client.CodeDuplicateBid {
					return
				}
			case client.RoundClosed:
				payment, won := ev.Outcome.Won(watcherNode)
				fmt.Printf("  [push] lstm-news round %d closed: %d bids, watcher won=%v paid=%.3f\n",
					ev.Round, ev.Outcome.NumBids, won, payment)
			}
		}
	}()

	// 16 nodes bid into every job each round — concurrently, through the
	// API, as a real fleet would.
	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < bidders; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*round + node)))
				for _, spec := range specs {
					bid := client.Bid{
						NodeID:    node,
						Qualities: []float64{rng.Float64(), rng.Float64()},
						Payment:   0.05 + 0.25*rng.Float64(),
					}
					if _, err := c.SubmitBid(ctx, spec.ID, bid); err != nil {
						log.Fatalf("node %d bid on %s: %v", node, spec.ID, err)
					}
				}
			}(i)
		}
		wg.Wait()

		fmt.Printf("--- round %d ---\n", round)
		for _, spec := range specs {
			out, err := c.CloseRound(ctx, spec.ID)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s (%s, K=%d): winners", spec.ID, spec.Rule.Kind, spec.K)
			for _, w := range out.Winners {
				fmt.Printf(" %d(%.2f)", w.NodeID, w.Payment)
			}
			fmt.Printf("  profit %.3f, latency %.2fms\n", out.AggregatorProfit, out.LatencyMS)
		}
	}
	cancelWatch()
	<-watcherDone

	snap, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexchange served %d jobs, %d rounds, %d bids (p99 round latency %.2fms)\n",
		snap.JobsCreated, snap.RoundsTotal, snap.BidsAccepted, snap.RoundLatencyP99Ms)

	// The analytics rollups ride the firehose asynchronously; drain it so
	// the table below reflects every event from the rounds above.
	if err := ex.Firehose().Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-node rollups from GET " + api.GetNodeStats.Path + ":")
	fmt.Println("  node      bids  wins  win-rate  paid")
	for _, node := range append(nodeIDs(bidders), watcherNode) {
		st, err := c.NodeStats(ctx, node)
		if err != nil {
			log.Fatalf("node %d stats: %v", node, err)
		}
		life := st.Lifetime
		fmt.Printf("  edge-%02d  %5d %5d  %7.0f%%  %.3f\n",
			node, life.Bids, life.Wins, 100*life.WinRate, life.TotalPayment)
	}
	jst, err := c.JobStats(ctx, "lstm-news")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lstm-news rollup: %d rounds, %d bids, paid %.3f, profit %.3f (avg close %.2fms)\n",
		jst.Lifetime.Rounds, jst.Lifetime.Bids, jst.Lifetime.TotalPayment,
		jst.Lifetime.AggregatorProfit, jst.Lifetime.AvgRoundLatencyMS)

	// Restart: close the exchange and replay its log. The jobs come back
	// with their full retained history — served through the same /v1 API.
	stop()
	revived, err := exchange.Open(dataDir, exchange.Options{})
	if err != nil {
		log.Fatal(err)
	}
	url2, stop2, err := serve(revived)
	if err != nil {
		log.Fatal(err)
	}
	defer stop2()
	c2, err := client.New(url2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- after restart from %s ---\n", dataDir)
	for _, spec := range specs {
		job, err := c2.Job(ctx, spec.ID)
		if err != nil {
			log.Fatalf("job %s lost across restart: %v", spec.ID, err)
		}
		out, err := c2.Outcome(ctx, spec.ID, rounds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s recovered rounds 1..%d, next round %d, round-%d winners %v\n",
			spec.ID, rounds, job.Round, rounds, out.WinnerIDs())
	}
	m2, err := c2.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry recovered %d nodes\n", m2.NodesKnown)
}
