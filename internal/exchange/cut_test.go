package exchange

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fmore/internal/auction"
)

// TestScoreInlineEquivalence closes one round large enough for the
// auctioneer to cut its scoring across the CPUs (5,000 bids, GOMAXPROCS 4)
// and requires the outcome a private auctioneer scoring inline (GOMAXPROCS
// 1) produces from the same seed: the exchange has no scoring code of its
// own, so which side of the cut ran is invisible in a round's result.
func TestScoreInlineEquivalence(t *testing.T) {
	const bidders = 5000
	cfg := auction.Config{Rule: testRule(t, 2), K: 16, Payment: auction.SecondPrice}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, err := auction.NewAuctioneer(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(testBids(2, 1, bidders)) // already in ascending NodeID order
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	ex := New(Options{})
	defer ex.Close()
	if _, err := ex.CreateJob(JobSpec{ID: "eq", Auction: cfg, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(2, 1, bidders) {
		if _, err := ex.SubmitBid("eq", b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ex.CloseRound("eq")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcome, want) {
		t.Fatalf("round outcome diverged:\nexchange, cut:   %+v\nprivate, inline: %+v", got.Outcome.Winners, want.Winners)
	}
}
