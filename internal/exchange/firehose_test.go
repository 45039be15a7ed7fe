package exchange

import (
	"context"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
)

// collectSink buffers every delivered event (copying out of the pump's
// reused scratch), the size of every call and the reported drops.
type collectSink struct {
	mu      sync.Mutex
	events  []TapEvent
	calls   []int
	dropped uint64
}

func (s *collectSink) ConsumeTap(events []TapEvent, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, events...)
	s.calls = append(s.calls, len(events))
	s.dropped += dropped
}

func (s *collectSink) snapshot() ([]TapEvent, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TapEvent(nil), s.events...), s.dropped
}

// wedgedSink blocks inside its first ConsumeTap call until released — the
// pathological slow consumer the never-block rule is about.
type wedgedSink struct {
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func newWedgedSink(t *testing.T) *wedgedSink {
	s := &wedgedSink{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { close(s.release) })
	return s
}

func (s *wedgedSink) ConsumeTap([]TapEvent, uint64) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
}

func drainFirehose(t *testing.T, f *Firehose) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// returnsWithin fails the test unless fn returns within five seconds.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked on a wedged sink", what)
	}
}

// TestFirehoseTapsAuctionEvents checks the event schema end to end: every
// bid of a closed round, every winner and every round close surface
// through an attached sink with the fields the aggregation layer depends on.
func TestFirehoseTapsAuctionEvents(t *testing.T) {
	const bidders = 8
	ex := New(Options{})
	defer ex.Close()

	sink := &collectSink{}
	detach := ex.Firehose().Attach(sink)
	defer detach()

	job, err := ex.CreateJob(JobSpec{ID: "tap-job", Auction: auction.Config{Rule: testRule(t, 0), K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bids := testBids(0, 1, bidders)
	for _, b := range bids {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := ex.CloseRound(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())

	events, dropped := sink.snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	var gotBids, gotWinners, gotRounds []TapEvent
	for _, ev := range events {
		if ev.Job != "tap-job" {
			t.Fatalf("event job = %q, want tap-job", ev.Job)
		}
		if ev.Round != 1 {
			t.Fatalf("event round = %d, want 1", ev.Round)
		}
		switch ev.Kind {
		case TapBidAccepted:
			gotBids = append(gotBids, ev)
		case TapWinner:
			gotWinners = append(gotWinners, ev)
		case TapRoundClosed:
			gotRounds = append(gotRounds, ev)
		default:
			t.Fatalf("unexpected kind %v", ev.Kind)
		}
	}
	if len(gotBids) != bidders {
		t.Fatalf("bid events = %d, want %d", len(gotBids), bidders)
	}
	for i, ev := range gotBids {
		if ev.Node != bids[i].NodeID || ev.Price != bids[i].Payment {
			t.Fatalf("bid event %d = node %d price %v, want node %d price %v",
				i, ev.Node, ev.Price, bids[i].NodeID, bids[i].Payment)
		}
	}
	if len(gotWinners) != len(ro.Outcome.Winners) {
		t.Fatalf("winner events = %d, want %d", len(gotWinners), len(ro.Outcome.Winners))
	}
	for i, ev := range gotWinners {
		w := ro.Outcome.Winners[i]
		if ev.Node != w.Bid.NodeID || ev.Payment != w.Payment || ev.Score != w.Score {
			t.Fatalf("winner event %d = %+v, want node %d payment %v score %v",
				i, ev, w.Bid.NodeID, w.Payment, w.Score)
		}
	}
	if len(gotRounds) != 1 {
		t.Fatalf("round events = %d, want 1", len(gotRounds))
	}
	rc := gotRounds[0]
	if rc.NumBids != bidders || rc.Winners != len(ro.Outcome.Winners) ||
		rc.Payment != ro.Outcome.TotalPayment() || rc.Profit != ro.Outcome.AggregatorProfit ||
		rc.Failed || rc.Latency <= 0 {
		t.Fatalf("round event = %+v, want bids=%d winners=%d payment=%v profit=%v failed=false latency>0",
			rc, bidders, len(ro.Outcome.Winners), ro.Outcome.TotalPayment(), ro.Outcome.AggregatorProfit)
	}

	if pub, drop := ex.Firehose().Stats(); pub != uint64(len(events)) || drop != 0 {
		t.Fatalf("Stats = (%d, %d), want (%d, 0)", pub, drop, len(events))
	}
	snap := ex.Metrics()
	if snap.FirehoseEvents != int64(len(events)) || snap.FirehoseDropped != 0 {
		t.Fatalf("snapshot firehose = (%d, %d), want (%d, 0)",
			snap.FirehoseEvents, snap.FirehoseDropped, len(events))
	}
}

// TestFirehoseAttachStartsAtLivePosition: a late sink sees only rounds that
// close after it attaches — the firehose is a tap, not a log.
func TestFirehoseAttachStartsAtLivePosition(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()

	// First sink turns recording on, then leaves.
	first := &collectSink{}
	detachFirst := ex.Firehose().Attach(first)

	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 1), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(1, 1, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())
	detachFirst()
	detachFirst() // idempotent

	late := &collectSink{}
	detach := ex.Firehose().Attach(late)
	defer detach()
	for _, b := range testBids(1, 2, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	drainFirehose(t, ex.Firehose())

	events, _ := late.snapshot()
	if len(events) == 0 {
		t.Fatal("late sink saw nothing")
	}
	for _, ev := range events {
		if ev.Round != 2 {
			t.Fatalf("late sink saw round-%d event %+v, want only round 2", ev.Round, ev)
		}
	}
}

// TestFirehoseWedgedSinkNeverBlocksProducers is the never-block acceptance
// test: with the sink stuck inside ConsumeTap, 64 bidders and repeated round
// closes must proceed unimpeded (any completion at all proves producers
// never wait on the sink — it is wedged for the whole test), and detaching
// the sink must not wait for the stuck call either.
func TestFirehoseWedgedSinkNeverBlocksProducers(t *testing.T) {
	const (
		bidders = 64
		rounds  = 4
	)
	ex := New(Options{})
	defer ex.Close()

	wedged := newWedgedSink(t)
	detachWedged := ex.Firehose().Attach(wedged)
	defer detachWedged()

	job, err := ex.CreateJob(JobSpec{ID: "wedge", Auction: auction.Config{Rule: testRule(t, 2), K: 4}})
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the pump inside ConsumeTap (not merely slow) with a first round
	// before the main workload.
	runRound(t, ex, job.ID(), 1)
	<-wedged.entered

	start := time.Now()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < bidders; i++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				b := testBids(2, round+2, bidders)[node]
				if _, err := ex.SubmitBid(job.ID(), b); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if _, err := ex.CloseRound(job.ID()); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	// Producers finished while the sink never returned; generous bound only
	// to catch a future regression into second-scale blocking.
	if elapsed > 30*time.Second {
		t.Fatalf("workload took %v with a wedged sink attached", elapsed)
	}
	if snap := ex.Metrics(); snap.RoundsTotal != rounds+1 {
		t.Fatalf("rounds_total = %d, want %d", snap.RoundsTotal, rounds+1)
	}
	returnsWithin(t, "detach", detachWedged)
}

// TestFirehoseOneSinkAttachDetach pins the attachment contract: an exchange
// has one sink, so a second Attach panics; a detached sink makes room for
// the next one, which starts at the live position; and neither detach nor
// Exchange.Close waits for a sink wedged inside ConsumeTap.
func TestFirehoseOneSinkAttachDetach(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	if _, err := ex.CreateJob(JobSpec{ID: "attach", Auction: auction.Config{Rule: testRule(t, 4), K: 2}}); err != nil {
		t.Fatal(err)
	}
	f := ex.Firehose()
	wedged := newWedgedSink(t)
	detach := f.Attach(wedged)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Attach before detach did not panic")
			}
		}()
		f.Attach(&collectSink{})
	}()
	runRound(t, ex, "attach", 1)
	<-wedged.entered
	returnsWithin(t, "detach", detach)

	next := &collectSink{}
	detach = f.Attach(next)
	runRound(t, ex, "attach", 2)
	drainFirehose(t, f)
	detach()
	events, _ := next.snapshot()
	if len(events) != 6+2+1 || events[0].Round != 2 || events[len(events)-1].Kind != TapRoundClosed {
		t.Fatalf("the sink attached after a detach saw %+v, want round 2 whole", events)
	}

	wedgedAgain := newWedgedSink(t)
	f.Attach(wedgedAgain)
	runRound(t, ex, "attach", 3)
	<-wedgedAgain.entered
	returnsWithin(t, "Exchange.Close", func() { ex.Close() })
}

// TestFirehoseUnobservedExchangeRecordsNothing: before any Attach the tap
// is off and Stats stay zero.
func TestFirehoseUnobservedExchangeRecordsNothing(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 3), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(3, 1, 4) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.CloseRound(job.ID()); err != nil {
		t.Fatal(err)
	}
	if pub, drop := ex.Firehose().Stats(); pub != 0 || drop != 0 {
		t.Fatalf("Stats = (%d, %d) on an unobserved exchange, want (0, 0)", pub, drop)
	}
}
