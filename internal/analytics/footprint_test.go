package analytics

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// megaRound is one round of the mega_round shape: every one of n nodes bids
// once into one job.
func megaRound(n int) *exchange.TapRound {
	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{JobID: "mega", Round: 1, NumBids: n}, Bids: make([]exchange.TapBid, n)}
	for i := range r.Bids {
		r.Bids[i] = exchange.TapBid{Node: i, Price: float64(i%97) / 100}
	}
	return r
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAnalyticsFootprintFollowsActivity pins what a node that bid in one window
// slice costs: one bucket, not Options.Buckets of them (the dense ring was
// ≈5.9 KB per node under the default options).
func TestAnalyticsFootprintFollowsActivity(t *testing.T) {
	const nodes = 16384
	clock := newFakeClock()
	r := megaRound(nodes)
	before := heapAlloc()
	a := New(Options{Now: clock.now})
	a.ConsumeRound(r)
	perNode := float64(heapAlloc()-before) / nodes
	runtime.KeepAlive(r) // in both readings
	t.Logf("%.0f B of heap per node after one bid each", perNode)
	if perNode > 512 {
		t.Errorf("heap grew %.0f B per node, want <= 512", perNode)
	}
	if ids := a.NodeIDs(); len(ids) != nodes {
		t.Fatalf("aggregator knows %d nodes, want %d", len(ids), nodes)
	}
}

// TestConsumeRoundSteadyStateAllocatesNothing: once an entity holds as many
// buckets as it is live in at a time, ingest allocates nothing — not in a
// slice it already has a bucket for, and not when the clock has moved the
// entity into a new slice after its oldest bucket left the window (the
// expired bucket is reset and reused in place).
func TestConsumeRoundSteadyStateAllocatesNothing(t *testing.T) {
	clock := newFakeClock()
	a := New(Options{Window: time.Minute, Buckets: 6, Now: clock.now})
	r := megaRound(256)
	r.Outcome.Latency = time.Millisecond
	r.Outcome.Outcome.Winners = []auction.Winner{{Bid: auction.Bid{NodeID: 7, Payment: 0.2}, Payment: 0.3}}
	a.ConsumeRound(r) // first contact: series and one bucket each

	if n := testing.AllocsPerRun(100, func() { a.ConsumeRound(r) }); n != 0 {
		t.Errorf("ConsumeRound on warmed entities in a live bucket: %v allocs, want 0", n)
	}
	// Every run lands one whole window later: the one bucket each entity
	// owns has expired and is rolled into the new slice.
	if n := testing.AllocsPerRun(100, func() {
		clock.advance(time.Minute)
		a.ConsumeRound(r)
	}); n != 0 {
		t.Errorf("ConsumeRound rolling warmed entities into a new bucket: %v allocs, want 0", n)
	}
	js, _ := a.JobStats("mega")
	if js.Window.Bids != 256 || js.Lifetime.Bids != 256*203 {
		t.Errorf("after the rolls: window bids %d (want 256, the last slice only), lifetime bids %d (want %d)",
			js.Window.Bids, js.Lifetime.Bids, 256*203)
	}
}

// churnRounds is the round_churn_durable shape: one round of each of jobs,
// of bidders bids and k winners.
func churnRounds(jobs, bidders, k int) []*exchange.TapRound {
	var rounds []*exchange.TapRound
	for j := 0; j < jobs; j++ {
		r := &exchange.TapRound{Outcome: exchange.RoundOutcome{JobID: fmt.Sprintf("churn-%d", j), Round: 1, NumBids: bidders, Latency: time.Millisecond}}
		for n := 0; n < bidders; n++ {
			r.Bids = append(r.Bids, exchange.TapBid{Node: n, Price: float64(n%97) / 100})
		}
		for n := 0; n < k; n++ {
			r.Outcome.Outcome.Winners = append(r.Outcome.Outcome.Winners,
				auction.Winner{Bid: auction.Bid{NodeID: n, Payment: 0.2}, Payment: 0.3, Score: 1})
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// BenchmarkConsumeRound prices the sink per event (bid, winner or close) on
// the two shapes the repo benchmark attaches it to: one job over 16,384
// nodes (mega_round — the node working set is what matters) and 64 jobs ×
// 64 nodes (round_churn_durable — the job switches are). An op is one round.
// Steady state: every entity is warm and the clock stands still, so
// allocs/op must read 0.
func BenchmarkConsumeRound(b *testing.B) {
	for _, shape := range []struct {
		name   string
		rounds []*exchange.TapRound
	}{
		{"1job_16384nodes", []*exchange.TapRound{megaRound(16384)}},
		{"64jobs_64nodes", churnRounds(64, 64, 8)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			a := New(Options{Now: newFakeClock().now})
			for _, r := range shape.rounds {
				a.ConsumeRound(r)
			}
			r := shape.rounds[0]
			events := len(r.Bids) + len(r.Outcome.Outcome.Winners) + 1 // every round of a shape alike
			b.ReportAllocs()
			for n := 0; b.Loop(); n++ {
				a.ConsumeRound(shape.rounds[n%len(shape.rounds)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
