package exchange

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/auction"
)

// The firehose taps closed rounds, and nothing earlier: FMore is a
// sealed-bid auction, so an ask stays private until its round is scored.
// Job.CloseRound, which holds the job's closeMu, the canonical slate and the
// round's immutable outcome, copies the slate's (node, price) pairs into a
// recycled TapRound and offers it to the pump of the one attached Sink; the
// pump hands the sink each round whole, in one ConsumeRound call.
//
// Nothing a sink does pushes back on a close. The queue between them is
// bounded in events, one per bid, per winner and per close of a round: a
// round that finds it empty is always admitted, one that does not fit is
// dropped whole and counted, so a sink only ever sees whole rounds. Nothing
// polls: an idle pump sleeps in a channel receive. Until a sink attaches,
// the tap costs a close one atomic load.

const (
	// tapQueueEvents bounds the events admitted and not yet handed over.
	tapQueueEvents = 1 << 16
	// tapSpareRounds is how many delivered rounds the pump keeps for the
	// next offers to refill — more than a healthy sink ever has in flight.
	tapSpareRounds = 64
	// drainSpins is how many scheduler yields Drain spends before it sleeps
	// a millisecond at a time: a pump with work delivers within microseconds.
	drainSpins = 64
)

// TapBid is one sealed bid of a closed round, as the tap reports it.
type TapBid struct {
	Node int
	// Price is the payment the bid asked for.
	Price float64
}

// TapRound is one closed round as the tap hands it to the sink: its outcome,
// shared as the job's history keeps it (Outcome.Err marks a round whose bid
// set poisoned scoring or selection), and a copy of its slate in canonical
// (ascending node) order.
type TapRound struct {
	Outcome RoundOutcome
	Bids    []TapBid
}

// tapEvents is a round's size in the queue's unit: one event per bid, per
// winner and per close.
func tapEvents(ro *RoundOutcome, bids int) uint64 {
	return uint64(bids + len(ro.Outcome.Winners) + 1)
}

// Sink consumes the tap. ConsumeRound receives every round the queue
// admitted, whole, each job's in close order. The round is the pump's and is
// reused once the call returns — a sink that retains Bids beyond the call
// must copy them — and its Outcome is the history's, to be read, never
// written. A sink may block (the pump stalls, closes don't), but the rounds
// that close meanwhile are dropped once the queue is full.
type Sink interface {
	ConsumeRound(r *TapRound)
}

// Firehose is the exchange's tap of closed rounds; obtain it via
// Exchange.Firehose.
type Firehose struct {
	mu   sync.Mutex // serializes Attach and detach
	pump atomic.Pointer[tapPump]

	// published counts the events of every round offered to an attached
	// sink, dropped those of the rounds the queue refused.
	published atomic.Uint64
	dropped   atomic.Uint64
}

// offer taps one closed round. CloseRound calls it holding closeMu, which
// keeps a job's rounds in order on the queue.
func (f *Firehose) offer(ro *RoundOutcome, bids []auction.Bid) {
	p := f.pump.Load()
	if p == nil {
		return
	}
	n := tapEvents(ro, len(bids))
	f.published.Add(n)
	if !p.admit(n) {
		f.dropped.Add(n)
		return
	}
	var r *TapRound
	select {
	case r = <-p.free:
	default:
		r = new(TapRound)
	}
	r.Outcome = *ro
	r.Bids = slices.Grow(r.Bids[:0], len(bids))
	for i := range bids {
		r.Bids = append(r.Bids, TapBid{bids[i].NodeID, bids[i].Payment})
	}
	p.rounds <- r // never blocks: an admitted round is at least one event of the bound
}

// Attach subscribes the exchange's one sink from the current position of
// the stream (no replay) and returns its detach function; a second Attach
// before that detach panics. Detach is signal-only and idempotent: it never
// waits on the pump, so a sink wedged inside ConsumeRound cannot wedge the
// caller.
func (f *Firehose) Attach(s Sink) (detach func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pump.Load() != nil {
		panic("exchange: Firehose.Attach: a sink is already attached")
	}
	p := &tapPump{
		sink:   s,
		rounds: make(chan *TapRound, tapQueueEvents), // a slot per event of the bound
		free:   make(chan *TapRound, tapSpareRounds),
		stop:   make(chan struct{}),
	}
	f.pump.Store(p)
	go p.run()
	return func() { f.detach(p) }
}

// detach stops p, if it is still attached, without waiting for it; a nil p
// stops whichever pump is (Exchange.Close).
func (f *Firehose) detach(p *tapPump) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.pump.Load(); cur != nil && (p == nil || p == cur) {
		f.pump.Store(nil)
		close(cur.stop)
	}
}

// Stats returns the events published since recording began (those of every
// round closed while a sink was attached) and how many were dropped.
func (f *Firehose) Stats() (published, dropped uint64) {
	return f.published.Load(), f.dropped.Load()
}

// Drain blocks until the attached sink has been handed every round admitted
// before the call, the sink is detached, or ctx expires. It is a test and
// shutdown aid — closes never call it.
func (f *Firehose) Drain(ctx context.Context) error {
	p := f.pump.Load()
	if p == nil {
		return nil
	}
	target := p.admitted.Load()
	for spins := 0; p.delivered.Load() < target && f.pump.Load() == p; spins++ {
		if spins < drainSpins {
			runtime.Gosched()
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// tapPump drives the sink: it takes rounds off the queue in order and hands
// each to ConsumeRound.
type tapPump struct {
	sink   Sink
	rounds chan *TapRound
	free   chan *TapRound // delivered rounds, for the next offers to refill
	stop   chan struct{}

	// admitted and delivered count the events of the rounds let into the
	// queue and of those handed to the sink: their difference is what the
	// queue holds, and delivered is Drain's progress witness.
	admitted  atomic.Uint64
	delivered atomic.Uint64
}

// admit reserves room for a round of n events, reporting false when the
// queue holds events and n more would overflow it.
func (p *tapPump) admit(n uint64) bool {
	for {
		out := p.delivered.Load() // first: delivered never passes admitted
		in := p.admitted.Load()
		if held := in - out; held > 0 && held+n > tapQueueEvents {
			return false
		}
		if p.admitted.CompareAndSwap(in, in+n) {
			return true
		}
	}
}

func (p *tapPump) run() {
	for {
		select {
		case <-p.stop:
			return
		case r := <-p.rounds:
			p.sink.ConsumeRound(r)
			n := tapEvents(&r.Outcome, len(r.Bids))
			// Recycled before it counts as delivered, so an offer that
			// follows a finished Drain finds it.
			r.Outcome = RoundOutcome{} // the history decides how long the outcome lives
			select {
			case p.free <- r:
			default: // enough spares already
			}
			p.delivered.Add(n)
		}
	}
}
