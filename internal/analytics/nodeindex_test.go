package analytics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// nodeProbeLen is how many index slots nodeSlot reads to reach id's node.
func nodeProbeLen(a *Aggregator, id int) int {
	n := 1
	for i := nodeHome(id, len(a.nodeIdx)); a.nodes[a.nodeIdx[i]-1].id != id; i = (i + 1) & (len(a.nodeIdx) - 1) {
		n++
	}
	return n
}

// bidRound is one round of one bid from each of ids, into one job.
func bidRound(job string, ids []int) *exchange.TapRound {
	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{JobID: job, Round: 1, NumBids: len(ids)}}
	for _, id := range ids {
		r.Bids = append(r.Bids, exchange.TapBid{Node: id, Price: 0.2})
	}
	return r
}

// TestNodeIndexProbeSpread checks that the node ID schemes a deployment
// plausibly hands out (sequential, strided by powers of two, negative, the
// extremes) land in short probes of the aggregator's node index, that every
// node answers NodeStats with its own bids and an absent ID misses, and that
// NodeIDs lists every node in ascending order.
func TestNodeIndexProbeSpread(t *testing.T) {
	const n = 1 << 14
	ids := func(first, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = first + i*stride
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		ids    []int
		absent int
	}{
		{"sequential", ids(0, 1), n},
		{"stride64", ids(0, 64), 1},
		{"stride4096", ids(0, 4096), 1},
		{"stride65536", ids(0, 65536), 1},
		{"negative", ids(-1, -1), 0},
		{"extremes", []int{math.MinInt, math.MaxInt}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Options{Now: newFakeClock().now})
			// Every node bids once, the even-numbered ones twice, in two rounds.
			var evens []int
			for i := 0; i < len(tc.ids); i += 2 {
				evens = append(evens, tc.ids[i])
			}
			a.ConsumeRound(bidRound("spread", tc.ids))
			a.ConsumeRound(bidRound("spread", evens))
			sum, worst := 0, 0
			for i, id := range tc.ids {
				st, ok := a.NodeStats(id)
				if want := int64(2 - i%2); !ok || st.Node != id || st.Lifetime.Bids != want {
					t.Fatalf("NodeStats(%d) = (node %d, %d bids, %v), want (node %d, %d bids, true)",
						id, st.Node, st.Lifetime.Bids, ok, id, want)
				}
				p := nodeProbeLen(a, id)
				sum += p
				worst = max(worst, p)
			}
			if _, ok := a.NodeStats(tc.absent); ok {
				t.Errorf("NodeStats(%d) found a node that never bid", tc.absent)
			}
			if got, want := a.NodeIDs(), slices.Sorted(slices.Values(tc.ids)); !slices.Equal(got, want) {
				t.Errorf("NodeIDs: %d IDs, ascending %v; want all %d ascending",
					len(got), slices.IsSorted(got), len(want))
			}
			// A uniform hash at a load of at most one half averages about
			// 1.5 slots per hit; an identity home slot piles strided IDs
			// onto a few slots and probes hundreds.
			if mean := float64(sum) / float64(len(tc.ids)); mean > 3 || worst > 16 {
				t.Errorf("%d slots, %d nodes: mean probe %.2f, max %d", len(a.nodeIdx), len(tc.ids), mean, worst)
			}
		})
	}
}

// TestNodeArenaGrowsMidBatch feeds one round of 256 events in which bids
// and wins of warm nodes are interleaved with the first contacts that move
// the node arena and double its index, three times over, and requires every
// node's and the job's rollup to equal the dense reference's on the same
// round. A node *series held across one of those first contacts writes into
// the arena's old backing array, and the rollup loses the write.
func TestNodeArenaGrowsMidBatch(t *testing.T) {
	clock := newFakeClock()
	got, want := New(Options{Now: clock.now}), newRef(Options{Now: clock.now})
	feed := func(r *exchange.TapRound) {
		got.ConsumeRound(r)
		want.ConsumeTap(refExpand(r), 0)
	}

	// 32 warm nodes fill the 64-slot index to half load, so the round's
	// first contact doubles it.
	const warm = 32
	warmIDs := make([]int, warm)
	for i := range warmIDs {
		warmIDs[i] = i
	}
	feed(bidRound("grow", warmIDs))
	if len(got.nodes) != warm || len(got.nodeIdx) != 2*warm {
		t.Fatalf("warm-up left %d nodes and %d index slots, want %d and %d",
			len(got.nodes), len(got.nodeIdx), warm, 2*warm)
	}
	arena := &got.nodes[0]
	clock.advance(time.Second)

	newID := func(i int) int { return 1<<20 + i*64 }
	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{JobID: "grow", Round: 2, NumBids: 224, Latency: time.Millisecond}}
	var fresh []int
	for i := 0; len(r.Bids) < 224; i++ { // a warm bid, then a first contact
		r.Bids = append(r.Bids, exchange.TapBid{Node: i % warm, Price: 0.07}, exchange.TapBid{Node: newID(i), Price: 0.9})
		fresh = append(fresh, newID(i))
	}
	o := &r.Outcome.Outcome
	for i := 0; len(o.Winners) < 31; i++ { // winners, warm and fresh alternating
		node := i % warm
		if i%2 == 1 {
			node = fresh[i*3]
		}
		o.Winners = append(o.Winners, auction.Winner{Bid: auction.Bid{NodeID: node, Payment: 0.2}, Payment: 0.25 + float64(i)/64, Score: 1})
	}
	o.AggregatorProfit = 3
	if n := len(r.Bids) + len(o.Winners) + 1; n != 256 {
		t.Fatalf("round of %d events, want 256", n)
	}
	feed(r)
	if n, slots := len(got.nodes), len(got.nodeIdx); n != warm+len(fresh) || slots != 512 || &got.nodes[0] == arena {
		t.Fatalf("after the round: %d nodes, %d index slots, arena moved %v; want %d, 512, true",
			n, slots, &got.nodes[0] != arena, warm+len(fresh))
	}

	// The job, every node and one that never bid, and NodeIDs.
	s := &refStream{rng: rand.New(rand.NewSource(1)), clock: clock, jobs: []string{"grow"}, nodes: append(warmIDs, fresh...)}
	probeAgainstReference(t, 0, got, want, s, len(s.nodes)+1)
}
