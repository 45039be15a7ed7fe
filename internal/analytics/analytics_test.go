package analytics

import (
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// fakeClock is an Options.Now source the tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func feedRound(a *Aggregator, job string, round int, nodes []int, winner int) {
	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{
		JobID: job, Round: round, NumBids: len(nodes), Latency: 2 * time.Millisecond,
		Outcome: auction.Outcome{
			Winners:          []auction.Winner{{Bid: auction.Bid{NodeID: winner, Payment: 0.2}, Payment: 0.3, Score: 1.5}},
			AggregatorProfit: 1.2,
		},
	}}
	for _, n := range nodes {
		r.Bids = append(r.Bids, exchange.TapBid{Node: n, Price: 0.2})
	}
	a.ConsumeRound(r)
}

func TestRollupMath(t *testing.T) {
	clock := newFakeClock()
	a := New(Options{Now: clock.now})

	feedRound(a, "j1", 1, []int{1, 2, 3}, 2)
	feedRound(a, "j1", 2, []int{1, 2, 3}, 2)

	js, ok := a.JobStats("j1")
	if !ok {
		t.Fatal("job j1 unknown to aggregator")
	}
	want := Rollup{
		Rounds: 2, Bids: 6, Wins: 2, WinRate: 2.0 / 6.0,
		TotalPayment: 0.6, AggregatorProfit: 2.4,
		AvgRoundLatencyMS: 2, MaxRoundLatencyMS: 2,
	}
	if js.Window != want {
		t.Errorf("job window rollup = %+v, want %+v", js.Window, want)
	}
	if js.Lifetime != want {
		t.Errorf("job lifetime rollup = %+v, want %+v", js.Lifetime, want)
	}
	if js.WindowSec != int64(defaultWindow/time.Second) {
		t.Errorf("WindowSec = %d, want %d", js.WindowSec, int64(defaultWindow/time.Second))
	}

	winner, ok := a.NodeStats(2)
	if !ok {
		t.Fatal("node 2 unknown")
	}
	if winner.Window.Bids != 2 || winner.Window.Wins != 2 || winner.Window.WinRate != 1 ||
		winner.Window.TotalPayment != 0.6 {
		t.Errorf("winner rollup = %+v", winner.Window)
	}
	if winner.LastBidMS == 0 || winner.LastWinMS == 0 {
		t.Errorf("winner last-seen stamps = (%d, %d), want both set", winner.LastBidMS, winner.LastWinMS)
	}
	loser, ok := a.NodeStats(1)
	if !ok {
		t.Fatal("node 1 unknown")
	}
	if loser.Window.Bids != 2 || loser.Window.Wins != 0 || loser.Window.WinRate != 0 {
		t.Errorf("loser rollup = %+v", loser.Window)
	}
	if loser.LastWinMS != 0 {
		t.Errorf("loser LastWinMS = %d, want 0 (never won)", loser.LastWinMS)
	}

	if ids := a.NodeIDs(); len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("NodeIDs = %v, want [1 2 3]", ids)
	}
}

func TestWindowExpiryKeepsLifetime(t *testing.T) {
	clock := newFakeClock()
	a := New(Options{Window: time.Minute, Buckets: 6, Now: clock.now})

	feedRound(a, "j1", 1, []int{1, 2}, 1)
	js, _ := a.JobStats("j1")
	if js.Window.Rounds != 1 || js.Lifetime.Rounds != 1 {
		t.Fatalf("fresh rollups = window %+v lifetime %+v", js.Window, js.Lifetime)
	}

	// Half a window later the data is still in range.
	clock.advance(30 * time.Second)
	js, _ = a.JobStats("j1")
	if js.Window.Rounds != 1 {
		t.Fatalf("window lost data mid-window: %+v", js.Window)
	}

	// Past the horizon the window drains but lifetime keeps everything.
	clock.advance(2 * time.Minute)
	js, _ = a.JobStats("j1")
	if js.Window.Rounds != 0 || js.Window.Bids != 0 {
		t.Errorf("window not empty after expiry: %+v", js.Window)
	}
	for _, c := range js.PriceHistogram.Counts {
		if c != 0 {
			t.Errorf("price histogram not empty after expiry: %v", js.PriceHistogram.Counts)
			break
		}
	}
	if js.Lifetime.Rounds != 1 || js.Lifetime.Bids != 2 {
		t.Errorf("lifetime decayed: %+v", js.Lifetime)
	}

	// New activity lands in fresh buckets (lazy in-place reset).
	feedRound(a, "j1", 2, []int{1, 2}, 2)
	js, _ = a.JobStats("j1")
	if js.Window.Rounds != 1 || js.Lifetime.Rounds != 2 {
		t.Errorf("post-expiry rollups = window %+v lifetime %+v", js.Window, js.Lifetime)
	}
}

func TestPriceHistogramBuckets(t *testing.T) {
	clock := newFakeClock()
	a := New(Options{PriceBounds: []float64{0.1, 0.5, 1}, Now: clock.now})

	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{JobID: "j", Round: 1}}
	for i, p := range []float64{0.05, 0.1, 0.3, 0.9, 2.5} {
		r.Bids = append(r.Bids, exchange.TapBid{Node: i, Price: p})
	}
	a.ConsumeRound(r)

	js, _ := a.JobStats("j")
	wantCounts := []int64{2, 1, 1, 1} // <=0.1 (boundary inclusive), <=0.5, <=1, overflow
	if len(js.PriceHistogram.Counts) != len(wantCounts) {
		t.Fatalf("histogram counts = %v", js.PriceHistogram.Counts)
	}
	for i, w := range wantCounts {
		if js.PriceHistogram.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, js.PriceHistogram.Counts[i], w, js.PriceHistogram.Counts)
		}
	}
	if len(js.PriceHistogram.Bounds) != 3 || js.PriceHistogram.Bounds[2] != 1 {
		t.Errorf("bounds = %v", js.PriceHistogram.Bounds)
	}
}

func TestUnknownEntities(t *testing.T) {
	a := New(Options{})
	if _, ok := a.JobStats("ghost"); ok {
		t.Error("JobStats on an unseen job reported ok")
	}
	if _, ok := a.NodeStats(99); ok {
		t.Error("NodeStats on an unseen node reported ok")
	}
}
