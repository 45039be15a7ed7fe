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

// TestTapEventsRoundTrip drives hostile values through an offer and the
// pump: each round reaches ConsumeRound once, whole, with every bid of its
// slate in order and bit for bit — NaN payloads, the sign of zero,
// infinities and the extreme node IDs included — and with the history's
// outcome itself (the same Winners backing array), for a failed round with
// a zero outcome alike. A round of a thousand bids arrives in one call.
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
	var want []RoundOutcome
	for _, failed := range []bool{false, true} {
		ro := RoundOutcome{JobID: "hostile", Round: farRound, NumBids: math.MaxInt64, Latency: math.MaxInt64,
			Outcome: auction.Outcome{Winners: won, AggregatorProfit: math.Inf(-1)}}
		if failed {
			ro = RoundOutcome{JobID: "hostile", Round: math.MaxInt64, NumBids: -1, Latency: -1, Err: errors.New("poisoned")}
		}
		f.offer(&ro, slate)
		want = append(want, ro)
	}
	drainFirehose(t, f)

	got := sink.snapshot()
	if pub, dropped := f.Stats(); dropped != 0 || len(got) != len(want) || pub != uint64(2*len(slate)+len(won)+2) {
		t.Fatalf("delivered %d rounds of %d events with %d dropped, want %d and 0", len(got), pub, dropped, len(want))
	}
	for i, w := range want {
		g := got[i]
		if len(g.Bids) != len(slate) {
			t.Fatalf("round %d: %d bids, want %d", i, len(g.Bids), len(slate))
		}
		for k, b := range slate {
			if g.Bids[k].Node != b.NodeID || math.Float64bits(g.Bids[k].Price) != math.Float64bits(b.Payment) {
				t.Errorf("round %d bid %d = %+v (price bits %#x), want node %d price bits %#x",
					i, k, g.Bids[k], math.Float64bits(g.Bids[k].Price), b.NodeID, math.Float64bits(b.Payment))
			}
		}
		o := g.Outcome
		if o.JobID != w.JobID || o.Round != w.Round || o.NumBids != w.NumBids || o.Latency != w.Latency || o.Err != w.Err ||
			math.Float64bits(o.Outcome.AggregatorProfit) != math.Float64bits(w.Outcome.AggregatorProfit) ||
			len(o.Outcome.Winners) != len(w.Outcome.Winners) ||
			(len(w.Outcome.Winners) > 0 && &o.Outcome.Winners[0] != &w.Outcome.Winners[0]) {
			t.Errorf("round %d outcome = %+v, want the history's %+v", i, o, w)
		}
	}

	big := new(Firehose)
	bigSink := &collectSink{}
	defer big.Attach(bigSink)()
	slate = testBids(5, 1, 1000)
	ro := RoundOutcome{JobID: "big", Round: 1, NumBids: len(slate)}
	big.offer(&ro, slate)
	drainFirehose(t, big)
	got = bigSink.snapshot()
	if len(got) != 1 || len(got[0].Bids) != len(slate) {
		t.Fatalf("a %d-bid round arrived as %d rounds", len(slate), len(got))
	}
	for i, b := range slate {
		if g := got[0].Bids[i]; g.Node != b.NodeID || g.Price != b.Payment {
			t.Fatalf("bid %d = %+v, want node %d price %v", i, g, b.NodeID, b.Payment)
		}
	}
}

// roundCheckSink sleeps on every call — the first time until gate opens —
// and checks, per job, that rounds arrive in increasing order, each with
// the bids and winners its outcome counts.
type roundCheckSink struct {
	gate  chan struct{}
	first sync.Once

	mu        sync.Mutex
	jobs      map[string]int // the last round delivered per job
	delivered uint64
	rounds    int
	bad       error
}

func (s *roundCheckSink) ConsumeRound(r *TapRound) {
	s.first.Do(func() { <-s.gate })
	time.Sleep(100 * time.Microsecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	ro := &r.Outcome
	s.delivered += uint64(len(r.Bids) + len(ro.Outcome.Winners) + 1)
	if last := s.jobs[ro.JobID]; (ro.Round <= last || len(r.Bids) != ro.NumBids) && s.bad == nil {
		s.bad = fmt.Errorf("%s round %d with %d of %d bids after round %d", ro.JobID, ro.Round, len(r.Bids), ro.NumBids, last)
	}
	s.jobs[ro.JobID] = ro.Round
	s.rounds++
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
	sink := &roundCheckSink{gate: make(chan struct{}), jobs: map[string]int{}}
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
	const perRound = bidders + k + 1
	if sink.delivered+dropped != published || published != jobs*rounds*perRound {
		t.Fatalf("delivered %d + dropped %d != published %d (want %d published)",
			sink.delivered, dropped, published, jobs*rounds*perRound)
	}
	if dropped == 0 || dropped%perRound != 0 {
		t.Fatalf("dropped %d events, want whole %d-event rounds and some of them", dropped, perRound)
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
// delivery Drain saw — is always delivered. Every iteration offers one round
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
	if got := len(sink.snapshot()); got != rounds {
		t.Fatalf("sink saw %d rounds, want %d", got, rounds)
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
// pump has handed it to the sink — and so recycled it.
func offerAndWait(f *Firehose, ro *RoundOutcome, slate []auction.Bid) {
	f.offer(ro, slate)
	p := f.pump.Load()
	for p.delivered.Load() != p.admitted.Load() {
		runtime.Gosched()
	}
}

// TestFirehoseEmitAllocatesNothing: with a sink attached, a steady-state
// offer allocates nothing on either side of the queue — the round and its
// slate copy are recycled — for a
// round_churn_durable round and a mega_round one.
func TestFirehoseEmitAllocatesNothing(t *testing.T) {
	for _, shape := range []struct{ n, k, runs int }{{64, 8, 1000}, {16384, 64, 50}} {
		f := new(Firehose)
		detach := f.Attach(discardSink{})
		ro, slate := tapRoundFixture(shape.n, shape.k)
		offerAndWait(f, &ro, slate)
		if n := testing.AllocsPerRun(shape.runs, func() { offerAndWait(f, &ro, slate) }); n != 0 {
			t.Errorf("attached offer of %d bids, K=%d: %v allocs per round, want 0", shape.n, shape.k, n)
		}
		detach()
	}
}

// discardSink is the cheapest possible consumer: the benchmark below
// prices the tap, not a sink.
type discardSink struct{}

func (discardSink) ConsumeRound(*TapRound) {}

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
			offerAndWait(f, &ro, slate) // the one round the loop recycles
			b.ReportAllocs()
			for b.Loop() {
				offerAndWait(f, &ro, slate)
			}
			events := len(slate) + len(ro.Outcome.Winners) + 1
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
