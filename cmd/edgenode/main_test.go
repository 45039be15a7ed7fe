package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fmore/internal/cmdtest"
	"fmore/internal/exchange"
	"fmore/pkg/client"
)

// TestRunRequiresExchangeAndJob: without -exchange-url and -job the node
// refuses to start.
func TestRunRequiresExchangeAndJob(t *testing.T) {
	for _, args := range [][]string{{}, {"-job", "demo"}, {"-exchange-url", "http://127.0.0.1:1"}} {
		if _, err := cmdtest.Stdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
	}
}

// TestRunOneRound drives `edgenode -rounds 1` against an in-process
// exchange serving a job with an equilibrium block: the node registers,
// bids the served strategy once, and reports the closed round it won.
func TestRunOneRound(t *testing.T) {
	ex := exchange.New(exchange.Options{})
	defer ex.Close()
	srv := httptest.NewServer(exchange.NewHandler(ex))
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateJob(context.Background(), client.JobSpec{
		ID:   "demo",
		Rule: client.RuleSpec{Kind: "cobb-douglas", Alpha: []float64{0.5, 0.5}, Scale: 2},
		K:    1,
		Seed: 3,
		Equilibrium: &client.EquilibriumSpec{
			Cost:  client.CostSpec{Kind: "linear", Beta: []float64{0.5, 0.5}},
			Theta: client.DistSpec{Kind: "uniform", Lo: 1, Hi: 2},
			N:     4,
			QLo:   []float64{0, 0},
			QHi:   []float64{1, 1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	job, ok := ex.Job("demo")
	if !ok {
		t.Fatal("job demo not hosted")
	}

	// The aggregator's side: close the round once the node's bid is in. On
	// a failure it closes the job, which ends the node's event stream, so
	// run returns instead of waiting on a round that never closes.
	closed := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for job.PendingBids() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		_, err := ex.CloseRound("demo")
		if err != nil {
			job.Close() //nolint:errcheck // the close error is the one reported
		}
		closed <- err
	}()
	out, err := cmdtest.Stdout(t, func() error {
		return run([]string{"-exchange-url", srv.URL, "-job", "demo", "-id", "3", "-rounds", "1"})
	})
	if cerr := <-closed; cerr != nil {
		t.Fatalf("closing the node's round: %v\n%s", cerr, out)
	}
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if _, ok := ex.Registry().Lookup(3); !ok {
		t.Error("node 3 is not registered")
	}
	for _, want := range []string{"node 3: θ=", "node 3: round 1 WON, paid ", "node 3: rounds=1 won=1 earned="} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
