package analytics

import (
	"context"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// TestTapSealsOpenRoundBids is the sealed-bid contract of the stats
// endpoints: a bid in a round that has not closed is invisible — no count,
// no price bucket, no last-bid stamp on the job or on the bidder — even
// after the tap is drained. Once the round closes and the tap is drained
// again, the whole round is there.
func TestTapSealsOpenRoundBids(t *testing.T) {
	ex, err := exchange.Open(t.TempDir(), exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := New(Options{})
	detach := ex.Firehose().Attach(agg)
	srv := httptest.NewServer(NewHandler(ex, agg, exchange.NewHandler(ex)))
	t.Cleanup(func() {
		srv.Close()
		detach()
		if err := ex.Close(); err != nil {
			t.Error(err)
		}
	})
	drain := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ex.Firehose().Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	histTotal := func(h PriceHistogram) (n int64) {
		for _, c := range h.Counts {
			n += c
		}
		return n
	}

	rule, err := auction.NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CreateJob(exchange.JobSpec{ID: "sealed", Auction: auction.Config{Rule: rule, K: 2}}); err != nil {
		t.Fatal(err)
	}
	const bidders = 4
	for n := 0; n < bidders; n++ {
		bid := auction.Bid{NodeID: n, Qualities: []float64{0.5, 0.5}, Payment: 0.1 + 0.05*float64(n)}
		if _, err := ex.SubmitBid("sealed", bid); err != nil {
			t.Fatal(err)
		}
	}
	drain()

	var js JobStats
	if code := get(t, srv, "/v1/jobs/sealed/stats", &js); code != 200 {
		t.Fatalf("job stats status = %d", code)
	}
	if js.Window.Bids != 0 || js.Lifetime.Bids != 0 || histTotal(js.PriceHistogram) != 0 {
		t.Fatalf("job stats show bids of an open round: %+v", js)
	}
	for n := 0; n < bidders; n++ {
		var ns NodeStats
		if code := get(t, srv, "/v1/nodes/"+strconv.Itoa(n)+"/stats", &ns); code != 200 {
			t.Fatalf("node %d stats status = %d", n, code)
		}
		if ns.Window.Bids != 0 || ns.Lifetime.Bids != 0 || histTotal(ns.PriceHistogram) != 0 || ns.LastBidMS != 0 {
			t.Fatalf("node %d stats show its bid in an open round: %+v", n, ns)
		}
	}

	if _, err := ex.CloseRound("sealed"); err != nil {
		t.Fatal(err)
	}
	drain()
	if code := get(t, srv, "/v1/jobs/sealed/stats", &js); code != 200 {
		t.Fatalf("job stats status = %d", code)
	}
	if js.Window.Rounds != 1 || js.Window.Bids != bidders || js.Window.Wins != 2 || histTotal(js.PriceHistogram) != bidders {
		t.Fatalf("job stats after the close = %+v, want the whole round", js)
	}
	for n := 0; n < bidders; n++ {
		var ns NodeStats
		if code := get(t, srv, "/v1/nodes/"+strconv.Itoa(n)+"/stats", &ns); code != 200 {
			t.Fatalf("node %d stats status = %d", n, code)
		}
		if ns.Window.Bids != 1 || histTotal(ns.PriceHistogram) != 1 || ns.LastBidMS == 0 {
			t.Fatalf("node %d stats after the close = %+v, want its bid", n, ns)
		}
	}
}
