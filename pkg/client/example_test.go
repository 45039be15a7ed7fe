package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"fmore/internal/exchange"
	"fmore/pkg/client"
)

// Example drives one complete auction round through the SDK against an
// in-process exchange: create a job, watch its event stream, bid, close,
// and read the pushed outcome. Against a deployed exchange, replace the
// httptest server with the service URL (e.g. "http://localhost:8780").
func Example() {
	ex := exchange.New(exchange.Options{})
	defer ex.Close()
	srv := httptest.NewServer(exchange.NewHandler(ex))
	defer srv.Close()

	c, err := client.New(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	// Cancel before the deferred server close: ending the watch's context
	// releases its event-stream connection, which the server waits out.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	job, err := c.CreateJob(ctx, client.JobSpec{
		ID:   "demo",
		Rule: client.RuleSpec{Kind: "additive", Alpha: []float64{0.5, 0.5}},
		K:    2,
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Server-push: the watch replays missed rounds and streams new ones.
	watch, err := c.WatchRounds(ctx, job.ID, client.WatchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	for node := 0; node < 4; node++ {
		if _, err := c.SubmitBid(ctx, job.ID, client.Bid{
			NodeID:    node,
			Qualities: []float64{0.2 * float64(node+1), 0.8 - 0.1*float64(node)},
			Payment:   0.1,
		}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := c.CloseRound(ctx, job.ID); err != nil {
		log.Fatal(err)
	}

	for ev := range watch.Events() {
		if ev.Type != client.RoundClosed {
			continue
		}
		fmt.Printf("round %d: %d bids, winners %v\n",
			ev.Round, ev.Outcome.NumBids, ev.Outcome.WinnerIDs())
		break
	}
	// Output:
	// round 1: 4 bids, winners [3 2]
}
