package exchange

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"fmore/internal/auction"
)

// TestTapSlotIsOneCacheLine pins the layout the producers' cost rests on: a
// slot is exactly 64 bytes and every ring starts on a 64-byte boundary, so
// a claim never shares a line with its neighbours.
func TestTapSlotIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(tapSlot{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(tapSlot{}) = %d, want 64", got)
	}
	for _, ringSize := range []int{0, 1, 64, 65, 1 << 16} {
		f := newFirehose(ringSize)
		detach := f.Attach(&collectSink{})
		if at := uintptr(unsafe.Pointer(&(*f.ring.Load())[0])); at%64 != 0 {
			t.Errorf("FirehoseRing %d: ring of %d slots starts at %#x, not on a cache line", ringSize, f.size, at)
		}
		detach()
	}
}

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

// TestTapWordsRoundTrip drives hostile values of every kind through the
// producers' encoders, a real slot and the pump's decoder. No field is
// narrowed on the way: integers keep a whole word each (so there is no
// packed maximum to saturate at), and the job index keeps the 32 bits it
// has at its source beside the kind in word 0.
func TestTapWordsRoundTrip(t *testing.T) {
	for _, k := range []TapKind{TapBidAccepted, TapWinner, TapRoundClosed} {
		for _, idx := range []uint64{0, 1, 1<<32 - 2} { // Job.tapIdx holds index+1 in a uint32
			for _, flag := range []uint64{0, tapFailedFlag} {
				head := tapHead(k, idx) | flag
				if TapKind(head) != k || head>>tapJobShift != idx || head&tapFailedFlag != flag {
					t.Fatalf("tapHead(%v, %d)|%#x = %#x: kind %v, job %d", k, idx, flag, head, TapKind(head), head>>tapJobShift)
				}
			}
		}
	}

	f := newFirehose(0)
	sink := &collectSink{}
	defer f.Attach(sink)()
	j := &Job{id: "hostile"}
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8dead0000beef) // a payload a sloppy pack would lose
	const farRound = 1<<40 + 7

	var want []TapEvent
	for i, price := range []float64{nan, math.Inf(1), math.Inf(-1), negZero, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		node := []int{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1}[i]
		f.bidAccepted(j, farRound+i, node, price)
		want = append(want, TapEvent{Kind: TapBidAccepted, Job: "hostile", Round: farRound + i, Node: node, Price: price})
	}
	won := []auction.Winner{
		{Bid: auction.Bid{NodeID: math.MinInt64, Payment: nan}, Payment: math.Inf(-1), Score: negZero},
		{Bid: auction.Bid{NodeID: math.MaxInt64, Payment: negZero}, Payment: nan, Score: math.Inf(1)},
	}
	for _, failed := range []bool{false, true} {
		ro := RoundOutcome{Round: math.MaxInt64, NumBids: math.MaxInt64, Latency: math.MaxInt64,
			Outcome: auction.Outcome{Winners: won, AggregatorProfit: math.Inf(-1)}}
		if failed {
			ro.Err = errors.New("poisoned")
			ro.Round, ro.NumBids, ro.Latency = -1, -1, -1 // never produced; still whole words
		}
		f.roundClosed(j, &ro)
		for _, w := range won {
			want = append(want, TapEvent{Kind: TapWinner, Job: "hostile", Round: ro.Round,
				Node: w.Bid.NodeID, Price: w.Bid.Payment, Payment: w.Payment, Score: w.Score})
		}
		want = append(want, TapEvent{Kind: TapRoundClosed, Job: "hostile", Round: ro.Round, NumBids: ro.NumBids,
			Winners: len(won), Payment: ro.Outcome.TotalPayment(), Profit: math.Inf(-1), Latency: ro.Latency, Failed: failed})
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
}

// coherentSink checks that every delivered event is the event one producer
// call published: all its fields derive from Round, and the fields of other
// kinds are zero. A copy torn across two claims — or words of one kind read
// under another kind's word 0 — fails the check.
type coherentSink struct {
	delivered atomic.Uint64
	bad       atomic.Pointer[TapEvent]
}

func coherentEvent(kind TapKind, r int) TapEvent {
	x := float64(r)
	switch kind {
	case TapBidAccepted:
		return TapEvent{Kind: kind, Job: "lap", Round: r, Node: -r, Price: x}
	case TapWinner:
		return TapEvent{Kind: kind, Job: "lap", Round: r, Node: 3 * r, Price: x + 0.5, Payment: 2 * x, Score: -x}
	default:
		return TapEvent{Kind: kind, Job: "lap", Round: r, NumBids: 5 * r, Winners: 2, Payment: 4 * x, // two winners
			Profit: 7 * x, Latency: time.Duration(r), Failed: r%2 == 1}
	}
}

func (s *coherentSink) ConsumeTap(events []TapEvent, _ uint64) {
	for _, ev := range events {
		if ev != coherentEvent(ev.Kind, ev.Round) {
			s.bad.CompareAndSwap(nil, &ev)
		}
	}
	s.delivered.Add(uint64(len(events)))
	runtime.Gosched() // fall behind: the ring is one batch deep
}

// TestFirehoseLappedReaderNeverMixesEvents laps the pump on a minimum ring
// with producers of all three kinds: whatever is delivered is whole, and
// every published event is either delivered or counted dropped, once.
func TestFirehoseLappedReaderNeverMixesEvents(t *testing.T) {
	f := newFirehose(64)
	sink := &coherentSink{}
	defer f.Attach(sink)()
	j := &Job{id: "lap"}

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 1 + p; r < 4000; r += 4 {
				if r%3 == 0 {
					f.bidAccepted(j, r, -r, float64(r))
					continue
				}
				w := coherentEvent(TapWinner, r)
				c := coherentEvent(TapRoundClosed, r)
				ro := RoundOutcome{Round: r, NumBids: c.NumBids, Latency: c.Latency, Outcome: auction.Outcome{
					AggregatorProfit: c.Profit,
					Winners: []auction.Winner{
						{Bid: auction.Bid{NodeID: w.Node, Payment: w.Price}, Payment: w.Payment, Score: w.Score},
						{Bid: auction.Bid{NodeID: w.Node, Payment: w.Price}, Payment: w.Payment, Score: w.Score},
					}}}
				if c.Failed {
					ro.Err = errors.New("failed")
				}
				f.roundClosed(j, &ro)
			}
		}(p)
	}
	wg.Wait()
	drainFirehose(t, f)

	if ev := sink.bad.Load(); ev != nil {
		t.Fatalf("delivered an event no producer published: %+v", *ev)
	}
	published, dropped := f.Stats()
	if got := sink.delivered.Load() + dropped; got != published {
		t.Fatalf("delivered %d + dropped %d = %d, want the %d published", sink.delivered.Load(), dropped, got, published)
	}
	t.Logf("published %d, dropped %d", published, dropped)
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

// TestFirehosePumpSleepsOnUnpublishedSlot claims a slot by hand and
// publishes nothing — a producer preempted between its fetch-add and its
// final version store. The pump must wait for the wake-up, not burn the
// CPU the producer needs to finish, and must deliver once the slot is
// completed.
func TestFirehosePumpSleepsOnUnpublishedSlot(t *testing.T) {
	f := newFirehose(64)
	sink := &collectSink{}
	defer f.Attach(sink)()

	i := f.head.Add(1) - 1
	runtime.GC() // keep the collector's own CPU time out of the window
	before := cpuTime(t)
	time.Sleep(100 * time.Millisecond)
	if spent := cpuTime(t) - before; spent > 30*time.Millisecond {
		t.Errorf("process burned %v of CPU in 100ms while the only event was an unpublished slot", spent)
	}
	if got, _ := sink.snapshot(); len(got) != 0 {
		t.Fatalf("sink saw %d events from a slot nobody published", len(got))
	}

	// Complete the publication as emit would.
	s := &(*f.ring.Load())[i&f.mask]
	s.ver.Store(2*i + 1)
	for k, w := range [...]uint64{tapHead(TapBidAccepted, 0), 9, 42, math.Float64bits(0.25)} {
		s.w[k].Store(w)
	}
	s.ver.Store(2*i + 2)
	for _, p := range *f.pumps.Load() {
		p.unpark()
	}
	drainFirehose(t, f)
	got, _ := sink.snapshot()
	if want := (TapEvent{Kind: TapBidAccepted, Round: 9, Node: 42, Price: 0.25}); len(got) != 1 || got[0] != want {
		t.Fatalf("after completing the slot the sink has %+v, want [%+v]", got, want)
	}
}

// TestFirehoseParkedPumpAlwaysWakes is the lost-wake-up test: with no
// fallback poll, an event published the instant after the pump decided to
// sleep must still be delivered. Every iteration lets the pump park, emits
// one event and requires Drain to settle well inside its deadline.
func TestFirehoseParkedPumpAlwaysWakes(t *testing.T) {
	f := newFirehose(64)
	sink := &coherentSink{}
	defer f.Attach(sink)()
	pump := (*f.pumps.Load())[0]
	j := &Job{id: "lap"}
	for r := 1; r <= 10000; r++ {
		for !pump.parked.Load() {
			runtime.Gosched()
		}
		f.bidAccepted(j, r, -r, float64(r))
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := f.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("event %d published to a parked pump was not delivered within 1s: %v", r, err)
		}
	}
	if got := sink.delivered.Load(); got != 10000 || sink.bad.Load() != nil {
		t.Fatalf("sink saw %d events (bad: %v), want 10000 whole ones", got, sink.bad.Load())
	}
}

// TestFirehoseEmitAllocatesNothing: with a sink attached and its pump
// running, publishing events allocates nothing on either side of the ring.
func TestFirehoseEmitAllocatesNothing(t *testing.T) {
	f := newFirehose(0)
	defer f.Attach(discardSink{})()
	j := &Job{id: "allocs"}
	ro := RoundOutcome{Round: 1, NumBids: 2, Outcome: auction.Outcome{Winners: make([]auction.Winner, 2)}}
	f.roundClosed(j, &ro) // interns the job
	if n := testing.AllocsPerRun(1000, func() {
		f.bidAccepted(j, 1, 7, 0.25)
		f.roundClosed(j, &ro)
	}); n != 0 {
		t.Errorf("attached emit: %v allocs per bid + round close, want 0", n)
	}
}

// discardSink is the cheapest possible consumer: the benchmarks below
// price the ring, not a sink.
type discardSink struct{}

func (discardSink) ConsumeTap([]TapEvent, uint64) {}

// BenchmarkFirehoseEmit is the attached producer path under contention:
// every P publishes bids as fast as it can into one ring while the pump
// drains it into a sink that does nothing.
func BenchmarkFirehoseEmit(b *testing.B) {
	f := newFirehose(0)
	defer f.Attach(discardSink{})()
	j := &Job{id: "bench"}
	f.intern(j)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for n := 0; pb.Next(); n++ {
			f.bidAccepted(j, 1, n, 0.25)
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// BenchmarkFirehoseEmit_PumpParked is the other end of the wake-up
// handshake: one producer, and every event finds the pump asleep, so an
// operation is a publish, the wake-up, the delivery and the pump parking
// again — the latency of an event on an otherwise idle exchange.
func BenchmarkFirehoseEmit_PumpParked(b *testing.B) {
	f := newFirehose(0)
	defer f.Attach(discardSink{})()
	pump := (*f.pumps.Load())[0]
	j := &Job{id: "bench"}
	f.intern(j)
	b.ReportAllocs()
	for n := 0; b.Loop(); n++ {
		for !pump.parked.Load() {
			runtime.Gosched()
		}
		f.bidAccepted(j, 1, n, 0.25)
	}
}
