package exchange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"fmore/internal/auction"
)

// sameEvent compares two events field by field with floats by bit pattern
// (NaN payloads and the sign of zero are part of the round trip).
func sameEvent(a, b TapEvent) bool {
	bitsOf := func(ev TapEvent) [4]uint64 {
		return [4]uint64{math.Float64bits(ev.Price), math.Float64bits(ev.Payment), math.Float64bits(ev.Score), math.Float64bits(ev.Profit)}
	}
	fa, fb := bitsOf(a), bitsOf(b)
	a.Price, a.Payment, a.Score, a.Profit = 0, 0, 0, 0
	b.Price, b.Payment, b.Score, b.Profit = 0, 0, 0, 0
	return a == b && fa == fb
}

// TestTapEventsRoundTrip drives hostile values of every kind through an
// offer and the pump: a round arrives as its bids in slate order, then its
// winners, then its summary, every field bit for bit — NaN payloads, the
// sign of zero, infinities and the extreme node IDs included, and a failed
// round with a zero outcome alike. A round larger than a batch arrives in
// calls of at most tapBatch events, in order.
func TestTapEventsRoundTrip(t *testing.T) {
	f := new(Firehose)
	sink := &collectSink{}
	defer f.Attach(sink)()
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8dead0000beef) // a payload a sloppy copy would lose
	const farRound = 1<<40 + 7

	var slate []auction.Bid
	for i, price := range []float64{nan, math.Inf(1), math.Inf(-1), negZero, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		node := []int{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64}[i]
		slate = append(slate, auction.Bid{NodeID: node, Payment: price})
	}
	won := []auction.Winner{
		{Bid: auction.Bid{NodeID: math.MinInt64, Payment: nan}, Payment: math.Inf(-1), Score: negZero},
		{Bid: auction.Bid{NodeID: math.MaxInt64, Payment: negZero}, Payment: nan, Score: math.Inf(1)},
	}
	var want []TapEvent
	for _, failed := range []bool{false, true} {
		ro := RoundOutcome{JobID: "hostile", Round: farRound, NumBids: math.MaxInt64, Latency: math.MaxInt64,
			Outcome: auction.Outcome{Winners: won, AggregatorProfit: math.Inf(-1)}}
		if failed {
			ro = RoundOutcome{JobID: "hostile", Round: math.MaxInt64, NumBids: -1, Latency: -1, Err: errors.New("poisoned")}
		}
		f.offer(&ro, slate)
		for _, b := range slate {
			want = append(want, TapEvent{Kind: TapBidAccepted, Job: "hostile", Round: ro.Round, Node: b.NodeID, Price: b.Payment})
		}
		for _, w := range ro.Outcome.Winners {
			want = append(want, TapEvent{Kind: TapWinner, Job: "hostile", Round: ro.Round,
				Node: w.Bid.NodeID, Price: w.Bid.Payment, Payment: w.Payment, Score: w.Score})
		}
		want = append(want, TapEvent{Kind: TapRoundClosed, Job: "hostile", Round: ro.Round, NumBids: ro.NumBids,
			Winners: len(ro.Outcome.Winners), Payment: ro.Outcome.TotalPayment(), Profit: ro.Outcome.AggregatorProfit,
			Latency: ro.Latency, Failed: failed})
	}
	drainFirehose(t, f)

	got, dropped := sink.snapshot()
	if dropped != 0 || len(got) != len(want) {
		t.Fatalf("delivered %d events with %d dropped, want %d and 0", len(got), dropped, len(want))
	}
	for i := range want {
		if !sameEvent(got[i], want[i]) {
			t.Errorf("event %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}

	big := new(Firehose)
	bigSink := &collectSink{}
	defer big.Attach(bigSink)()
	slate = testBids(5, 1, 1000)
	ro := RoundOutcome{JobID: "big", Round: 1, NumBids: len(slate)}
	big.offer(&ro, slate)
	drainFirehose(t, big)
	got, _ = bigSink.snapshot()
	if len(got) != len(slate)+1 || got[len(slate)].Kind != TapRoundClosed {
		t.Fatalf("a %d-bid round arrived as %d events", len(slate), len(got))
	}
	for i, b := range slate {
		if got[i].Kind != TapBidAccepted || got[i].Node != b.NodeID || got[i].Price != b.Payment {
			t.Fatalf("bid event %d = %+v, want node %d price %v", i, got[i], b.NodeID, b.Payment)
		}
	}
	for i, n := range bigSink.calls {
		if n > tapBatch {
			t.Fatalf("ConsumeTap call %d carried %d events, want at most %d", i, n, tapBatch)
		}
	}
}

// roundCheckSink sleeps on every call — the first time until gate opens —
// and checks, per job, that rounds arrive whole and in increasing order:
// a round's bids, then its winners, then a summary whose counts match them.
type roundCheckSink struct {
	gate  chan struct{}
	first sync.Once

	mu        sync.Mutex
	jobs      map[string]*roundCursor
	delivered uint64
	dropped   uint64
	rounds    int
	bad       error
}

// roundCursor is one job's position: the round being delivered (open) or
// the last one whose summary arrived.
type roundCursor struct {
	round      int
	open       bool
	bids, wins int
}

func (s *roundCheckSink) ConsumeTap(events []TapEvent, dropped uint64) {
	s.first.Do(func() { <-s.gate })
	time.Sleep(100 * time.Microsecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delivered += uint64(len(events))
	s.dropped += dropped
	for _, ev := range events {
		c := s.jobs[ev.Job]
		if c == nil {
			c = new(roundCursor)
			s.jobs[ev.Job] = c
		}
		same := c.open && ev.Round == c.round
		switch {
		case ev.Kind == TapBidAccepted && !c.open && ev.Round > c.round:
			*c = roundCursor{round: ev.Round, open: true, bids: 1}
		case ev.Kind == TapBidAccepted && same && c.wins == 0:
			c.bids++
		case ev.Kind == TapWinner && same:
			c.wins++
		case ev.Kind == TapRoundClosed && same && ev.NumBids == c.bids && ev.Winners == c.wins:
			c.open = false
			s.rounds++
		default:
			if s.bad == nil {
				s.bad = fmt.Errorf("%v event of %s round %d after %+v", ev.Kind, ev.Job, ev.Round, *c)
			}
		}
	}
}

// TestFirehoseConcurrentClosesDeliverWholeRounds closes rounds of eight
// jobs concurrently into a sink that sleeps on every call and holds its
// first call until every close is done, so the queue overflows: every
// published event is delivered or counted dropped, exactly once; each job's
// rounds arrive in increasing order; and no round reaches the sink with only
// part of its bids.
func TestFirehoseConcurrentClosesDeliverWholeRounds(t *testing.T) {
	const (
		jobs    = 8
		rounds  = 32
		bidders = 300
		k       = 4
	)
	ex := New(Options{})
	defer ex.Close()
	sink := &roundCheckSink{gate: make(chan struct{}), jobs: map[string]*roundCursor{}}
	defer ex.Firehose().Attach(sink)()

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		id := fmt.Sprint("close-", j)
		if _, err := ex.CreateJob(JobSpec{ID: id, Auction: auction.Config{Rule: testRule(t, j), K: k}}); err != nil {
			t.Fatal(err)
		}
		slate := testBids(j, 1, bidders)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, b := range slate {
					if _, err := ex.SubmitBid(id, b); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := ex.CloseRound(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(sink.gate)
	drainFirehose(t, ex.Firehose())

	published, dropped := ex.Firehose().Stats()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.bad != nil {
		t.Fatal(sink.bad)
	}
	for id, c := range sink.jobs {
		if c.open {
			t.Errorf("%s: round %d is still open after Drain: %+v", id, c.round, *c)
		}
	}
	const perRound = bidders + k + 1
	if sink.delivered+dropped != published || published != jobs*rounds*perRound {
		t.Fatalf("delivered %d + dropped %d != published %d (want %d published)",
			sink.delivered, dropped, published, jobs*rounds*perRound)
	}
	if dropped == 0 || dropped%perRound != 0 || sink.dropped != dropped {
		t.Fatalf("dropped %d events (the sink was told of %d), want whole %d-event rounds and some of them",
			dropped, sink.dropped, perRound)
	}
	if sink.rounds != jobs*rounds-int(dropped/perRound) {
		t.Fatalf("sink saw %d whole rounds, want %d", sink.rounds, jobs*rounds-int(dropped/perRound))
	}
	t.Logf("published %d events, dropped %d (%d of %d rounds)", published, dropped, dropped/perRound, jobs*rounds)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestFirehoseIdleSinkCostsNoCPU: an idle exchange with a sink attached —
// a round delivered, nothing since — burns no CPU: the pump sleeps in its
// channel receive and nothing polls.
func TestFirehoseIdleSinkCostsNoCPU(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	defer ex.Firehose().Attach(&collectSink{})()
	if _, err := ex.CreateJob(JobSpec{ID: "idle", Auction: auction.Config{Rule: testRule(t, 6), K: 2}}); err != nil {
		t.Fatal(err)
	}
	runRound(t, ex, "idle", 1)
	drainFirehose(t, ex.Firehose())

	runtime.GC() // keep the collector's own CPU time out of the window
	before := cpuTime(t)
	time.Sleep(100 * time.Millisecond)
	if spent := cpuTime(t) - before; spent > 30*time.Millisecond {
		t.Errorf("process burned %v of CPU in 100ms with an idle sink attached", spent)
	}
}

// TestFirehoseParkedPumpAlwaysWakes: a round offered to a pump that has
// run out of work — asleep in its receive, or on its way there after the
// flush Drain saw — is always delivered. Every iteration offers one round
// and requires Drain to settle well inside its deadline.
func TestFirehoseParkedPumpAlwaysWakes(t *testing.T) {
	f := new(Firehose)
	sink := &collectSink{}
	defer f.Attach(sink)()
	slate := []auction.Bid{{NodeID: 7, Payment: 0.25}}
	const rounds = 10000
	for r := 1; r <= rounds; r++ {
		ro := RoundOutcome{JobID: "wake", Round: r, NumBids: 1}
		f.offer(&ro, slate)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := f.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d offered to an idle pump was not delivered within 1s: %v", r, err)
		}
	}
	if got, dropped := sink.snapshot(); len(got) != 2*rounds || dropped != 0 {
		t.Fatalf("sink saw %d events and %d drops, want %d and 0", len(got), dropped, 2*rounds)
	}
}

// tapRoundFixture is one round of n bids and k winners: 64 and 8 are the
// round_churn_durable shape, 16,384 and 64 the mega_round one.
func tapRoundFixture(n, k int) (RoundOutcome, []auction.Bid) {
	slate := testBids(7, 1, n)
	winners := make([]auction.Winner, k)
	for i := range winners {
		winners[i] = auction.Winner{Bid: slate[i], Payment: slate[i].Payment, Score: float64(i)}
	}
	return RoundOutcome{JobID: "fixture", Round: 1, NumBids: len(slate), Outcome: auction.Outcome{Winners: winners}}, slate
}

// offerAndWait offers one round and waits, without allocating, until the
// pump has handed it to the sink — and so recycled its batch.
func offerAndWait(f *Firehose, ro *RoundOutcome, slate []auction.Bid) {
	f.offer(ro, slate)
	p := f.pump.Load()
	for p.delivered.Load() != p.admitted.Load() {
		runtime.Gosched()
	}
}

// TestFirehoseEmitAllocatesNothing: with a sink attached, a steady-state
// offer allocates nothing on either side of the queue — the batch and its
// slate copy are recycled, the pump's buffer is reused.
func TestFirehoseEmitAllocatesNothing(t *testing.T) {
	f := new(Firehose)
	defer f.Attach(discardSink{})()
	ro, slate := tapRoundFixture(64, 8)
	offerAndWait(f, &ro, slate)
	if n := testing.AllocsPerRun(1000, func() { offerAndWait(f, &ro, slate) }); n != 0 {
		t.Errorf("attached offer: %v allocs per round, want 0", n)
	}
}

// discardSink is the cheapest possible consumer: the benchmark below
// prices the tap, not a sink.
type discardSink struct{}

func (discardSink) ConsumeTap([]TapEvent, uint64) {}

// BenchmarkFirehoseRound offers one round and waits until the pump has
// delivered it into a sink that discards everything: the tap's whole cost
// per round, closer and pump side, on the round_churn_durable shape (64
// bids, K=8) and the mega_round one (16,384 bids, K=64). 0 allocs/op.
func BenchmarkFirehoseRound(b *testing.B) {
	for _, shape := range []struct {
		name string
		n, k int
	}{
		{"64bids_K8", 64, 8},
		{"16384bids_K64", 16384, 64},
	} {
		b.Run(shape.name, func(b *testing.B) {
			f := new(Firehose)
			defer f.Attach(discardSink{})()
			ro, slate := tapRoundFixture(shape.n, shape.k)
			offerAndWait(f, &ro, slate) // the one batch the loop recycles
			b.ReportAllocs()
			for b.Loop() {
				offerAndWait(f, &ro, slate)
			}
			events := len(slate) + len(ro.Outcome.Winners) + 1
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
