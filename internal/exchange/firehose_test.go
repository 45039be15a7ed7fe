package exchange

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
)

// collectSink keeps every delivered round, its bids copied out of the
// pump's reused round.
type collectSink struct {
	mu     sync.Mutex
	rounds []TapRound
}

func (s *collectSink) ConsumeRound(r *TapRound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds = append(s.rounds, TapRound{Outcome: r.Outcome, Bids: slices.Clone(r.Bids)})
}

func (s *collectSink) snapshot() []TapRound {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.rounds)
}

// wedgedSink blocks inside its first ConsumeRound call until released — the
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

func (s *wedgedSink) ConsumeRound(*TapRound) {
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

// TestFirehoseTapsAuctionEvents checks the tap end to end: a closed round
// reaches an attached sink once, with every bid of its slate in order, the
// outcome the history keeps and the summary fields the aggregation layer
// depends on, and Stats and the metrics count its events.
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

	rounds := sink.snapshot()
	if len(rounds) != 1 {
		t.Fatalf("sink saw %d rounds, want 1", len(rounds))
	}
	got := rounds[0]
	if len(got.Bids) != bidders {
		t.Fatalf("round carried %d bids, want %d", len(got.Bids), bidders)
	}
	for i, b := range got.Bids {
		if b.Node != bids[i].NodeID || b.Price != bids[i].Payment {
			t.Fatalf("bid %d = %+v, want node %d price %v", i, b, bids[i].NodeID, bids[i].Payment)
		}
	}
	o := &got.Outcome
	if o.JobID != "tap-job" || o.Round != 1 || o.NumBids != bidders || o.Err != nil || o.Latency <= 0 ||
		len(o.Outcome.Winners) != 3 || !reflect.DeepEqual(o.Outcome, ro.Outcome) {
		t.Fatalf("round outcome = %+v, want %+v with latency > 0", *o, ro)
	}

	events := uint64(bidders + len(ro.Outcome.Winners) + 1)
	if pub, drop := ex.Firehose().Stats(); pub != events || drop != 0 {
		t.Fatalf("Stats = (%d, %d), want (%d, 0)", pub, drop, events)
	}
	snap := ex.Metrics()
	if snap.FirehoseEvents != int64(events) || snap.FirehoseDropped != 0 {
		t.Fatalf("snapshot firehose = (%d, %d), want (%d, 0)",
			snap.FirehoseEvents, snap.FirehoseDropped, events)
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

	rounds := late.snapshot()
	if len(rounds) != 1 || rounds[0].Outcome.Round != 2 {
		t.Fatalf("late sink saw %d rounds (first %+v), want only round 2", len(rounds), rounds)
	}
}

// TestFirehoseWedgedSinkNeverBlocksProducers is the never-block acceptance
// test: with the sink stuck inside ConsumeRound, 64 bidders and repeated round
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

	// Wedge the pump inside ConsumeRound (not merely slow) with a first round
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
// Exchange.Close waits for a sink wedged inside ConsumeRound.
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
	rounds := next.snapshot()
	if len(rounds) != 1 || rounds[0].Outcome.Round != 2 || len(rounds[0].Bids) != 6 || len(rounds[0].Outcome.Outcome.Winners) != 2 {
		t.Fatalf("the sink attached after a detach saw %+v, want round 2 whole", rounds)
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
