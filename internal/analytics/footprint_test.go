package analytics

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fmore/internal/exchange"
)

// megaBids is one round of the mega_round shape: every one of n nodes bids
// once into one job.
func megaBids(n int) []exchange.TapEvent {
	events := make([]exchange.TapEvent, n)
	for i := range events {
		events[i] = exchange.TapEvent{Kind: exchange.TapBidAccepted, Job: "mega", Round: 1, Node: i, Price: float64(i%97) / 100}
	}
	return events
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
	events := megaBids(nodes)
	before := heapAlloc()
	a := New(Options{Now: clock.now})
	for i := 0; i < nodes; i += 256 { // the pump's batch size
		a.ConsumeTap(events[i:i+256], 0)
	}
	perNode := float64(heapAlloc()-before) / nodes
	runtime.KeepAlive(events) // in both readings
	t.Logf("%.0f B of heap per node after one bid each", perNode)
	if perNode > 512 {
		t.Errorf("heap grew %.0f B per node, want <= 512", perNode)
	}
	if ids := a.NodeIDs(); len(ids) != nodes {
		t.Fatalf("aggregator knows %d nodes, want %d", len(ids), nodes)
	}
}

// TestConsumeTapSteadyStateAllocatesNothing: once an entity holds as many
// buckets as it is live in at a time, ingest allocates nothing — not in a
// slice it already has a bucket for, and not when the clock has moved the
// entity into a new slice after its oldest bucket left the window (the
// expired bucket is reset and reused in place).
func TestConsumeTapSteadyStateAllocatesNothing(t *testing.T) {
	clock := newFakeClock()
	a := New(Options{Window: time.Minute, Buckets: 6, Now: clock.now})
	events := append(megaBids(256),
		exchange.TapEvent{Kind: exchange.TapWinner, Job: "mega", Round: 1, Node: 7, Price: 0.2, Payment: 0.3},
		exchange.TapEvent{Kind: exchange.TapRoundClosed, Job: "mega", Round: 1, NumBids: 256, Winners: 1, Payment: 0.3, Latency: time.Millisecond})
	a.ConsumeTap(events, 0) // first contact: series and one bucket each

	if n := testing.AllocsPerRun(100, func() { a.ConsumeTap(events, 0) }); n != 0 {
		t.Errorf("ConsumeTap on warmed entities in a live bucket: %v allocs, want 0", n)
	}
	// Every run lands one whole window later: the one bucket each entity
	// owns has expired and is rolled into the new slice.
	if n := testing.AllocsPerRun(100, func() {
		clock.advance(time.Minute)
		a.ConsumeTap(events, 0)
	}); n != 0 {
		t.Errorf("ConsumeTap rolling warmed entities into a new bucket: %v allocs, want 0", n)
	}
	js, _ := a.JobStats("mega")
	if js.Window.Bids != 256 || js.Lifetime.Bids != 256*203 {
		t.Errorf("after the rolls: window bids %d (want 256, the last slice only), lifetime bids %d (want %d)",
			js.Window.Bids, js.Lifetime.Bids, 256*203)
	}
}

// churnRounds is the round_churn_durable shape: jobs × (bidders bids, k
// winners, one close), job after job.
func churnRounds(jobs, bidders, k int) []exchange.TapEvent {
	var events []exchange.TapEvent
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("churn-%d", j)
		for n := 0; n < bidders; n++ {
			events = append(events, exchange.TapEvent{Kind: exchange.TapBidAccepted, Job: job, Round: 1, Node: n, Price: float64(n%97) / 100})
		}
		for n := 0; n < k; n++ {
			events = append(events, exchange.TapEvent{Kind: exchange.TapWinner, Job: job, Round: 1, Node: n, Price: 0.2, Payment: 0.3, Score: 1})
		}
		events = append(events, exchange.TapEvent{Kind: exchange.TapRoundClosed, Job: job, Round: 1, NumBids: bidders, Winners: k, Payment: 0.3 * float64(k), Latency: time.Millisecond})
	}
	return events
}

// BenchmarkConsumeTap prices the sink per pump batch (256 events) on the
// two shapes the repo benchmark attaches it to: one job over 16,384 nodes
// (mega_round — the node working set is what matters) and 64 jobs × 64
// nodes (round_churn_durable — the job switches are). Steady state: every
// entity is warm, so allocs/op must read 0.
func BenchmarkConsumeTap(b *testing.B) {
	for _, shape := range []struct {
		name   string
		events []exchange.TapEvent
	}{
		{"1job_16384nodes", megaBids(16384)},
		{"64jobs_64nodes", churnRounds(64, 64, 8)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			a := New(Options{})
			a.ConsumeTap(shape.events, 0)
			batches := len(shape.events) / 256
			b.ReportAllocs()
			for n := 0; b.Loop(); n++ {
				at := n % batches * 256
				a.ConsumeTap(shape.events[at:at+256], 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/256, "ns/event")
		})
	}
}
