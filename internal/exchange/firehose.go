package exchange

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/auction"
	"fmore/pkg/api"
)

// The firehose taps closed rounds, and nothing earlier: FMore is a
// sealed-bid auction, so an ask stays private until its round is scored.
// Job.CloseRound, which holds the job's closeMu, the canonical slate and the
// round's immutable outcome, copies the slate's (node, price) pairs into a
// recycled batch and offers it to the pump of the one attached Sink; the
// pump expands it into the round's bids in canonical order, its winners and
// its TapRoundClosed, in ConsumeTap calls of at most tapBatch events.
//
// Nothing a sink does pushes back on a close. The queue between them is
// bounded in events: a round that finds it empty is always admitted, one
// that does not fit is dropped whole and counted, so a sink only ever sees
// whole rounds. Nothing polls: an idle pump sleeps in a channel receive.
// Until a sink attaches, the tap costs a close one atomic load.

const (
	// tapQueueEvents bounds the events admitted and not yet handed over.
	tapQueueEvents = 1 << 16
	// tapBatch caps the events per ConsumeTap call (the pump's buffer).
	tapBatch = 256
	// tapSpareBatches is how many delivered batches the pump keeps for the
	// next offers — more rounds than a healthy sink ever has in flight.
	tapSpareBatches = 64
	// drainSpins is how many scheduler yields Drain spends before it sleeps
	// a millisecond at a time: a pump with work delivers within microseconds.
	drainSpins = 64
)

// TapKind enumerates firehose event kinds.
type TapKind uint8

const (
	// TapBidAccepted is one sealed bid of a closed round. A round's bids
	// arrive in canonical (ascending node) order, after the round closed and
	// before its winners.
	TapBidAccepted TapKind = 1 + iota
	// TapWinner is one selected bid of a completed round (one event per
	// winner, emitted before the round's TapRoundClosed).
	TapWinner
	// TapRoundClosed is one completed round close (Failed marks a round
	// whose scoring or winner determination errored).
	TapRoundClosed
)

// String returns the kind's wire-stable name.
func (k TapKind) String() string {
	switch k {
	case TapBidAccepted:
		return "bid_accepted"
	case TapWinner:
		return "winner"
	case TapRoundClosed:
		return api.EventRoundClosed
	default:
		return "unknown"
	}
}

// TapEvent is one firehose event. Fields beyond Kind/Job/Round are
// populated per kind: bids carry Node and Price; winners carry Node, Price
// (asked), Payment (granted) and Score; round closes carry NumBids,
// Winners, Payment (round total), Profit, Latency and Failed.
type TapEvent struct {
	Kind  TapKind
	Job   string
	Round int
	// Node is the bidding (or winning) node.
	Node int
	// Price is the payment the bid asked for.
	Price float64
	// Payment is the payment granted to a winner, or a closed round's
	// total payment across its winners.
	Payment float64
	// Score is a winner's score under the job's rule.
	Score float64
	// NumBids and Winners size a closed round's bid and winner sets.
	NumBids int
	Winners int
	// Latency is the round's close-to-outcome duration.
	Latency time.Duration
	// Profit is the round's aggregator profit (Eq 6).
	Profit float64
	// Failed marks a round whose bid set poisoned scoring or selection.
	Failed bool
}

// Sink consumes firehose batches. ConsumeTap receives whole rounds, each
// job's in close order (a round may span calls), plus the events of the
// rounds dropped since the previous call. The events slice is the pump's
// reused scratch — a sink that retains events beyond the call must copy
// them. A sink may block (the pump stalls, closes don't), but the rounds
// that close meanwhile are dropped once the queue is full.
type Sink interface {
	ConsumeTap(events []TapEvent, dropped uint64)
}

// Firehose is the exchange's event tap; obtain it via Exchange.Firehose.
type Firehose struct {
	mu   sync.Mutex // serializes Attach and detach
	pump atomic.Pointer[tapPump]

	// published counts the events of every round offered to an attached
	// sink, dropped those of the rounds the queue refused.
	published atomic.Uint64
	dropped   atomic.Uint64
}

// tapBid is one bid of a closed round, as the tap reports it.
type tapBid struct {
	node  int
	price float64
}

// tapRound is one closed round on its way to the sink: its outcome, shared
// as the history keeps it, and a copy of its slate (the close reuses it).
type tapRound struct {
	ro   RoundOutcome
	bids []tapBid
}

// offer taps one closed round. CloseRound calls it holding closeMu, which
// keeps a job's rounds in order on the queue.
func (f *Firehose) offer(ro *RoundOutcome, bids []auction.Bid) {
	p := f.pump.Load()
	if p == nil {
		return
	}
	n := uint64(len(bids) + len(ro.Outcome.Winners) + 1)
	f.published.Add(n)
	if !p.admit(n) {
		f.dropped.Add(n)
		return
	}
	var b *tapRound
	select {
	case b = <-p.free:
	default:
		b = new(tapRound)
	}
	b.ro = *ro
	b.bids = slices.Grow(b.bids[:0], len(bids))
	for i := range bids {
		b.bids = append(b.bids, tapBid{bids[i].NodeID, bids[i].Payment})
	}
	p.rounds <- b // never blocks: an admitted round is at least one event of the bound
}

// Attach subscribes the exchange's one sink from the current position of
// the stream (no replay) and returns its detach function; a second Attach
// before that detach panics. Detach is signal-only and idempotent: it never
// waits on the pump, so a sink wedged inside ConsumeTap cannot wedge the
// caller.
func (f *Firehose) Attach(s Sink) (detach func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pump.Load() != nil {
		panic("exchange: Firehose.Attach: a sink is already attached")
	}
	p := &tapPump{
		fh:       f,
		sink:     s,
		rounds:   make(chan *tapRound, tapQueueEvents), // a slot per event of the bound
		free:     make(chan *tapRound, tapSpareBatches),
		stop:     make(chan struct{}),
		buf:      make([]TapEvent, 0, tapBatch),
		reported: f.dropped.Load(),
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

// tapPump drives the sink: it takes rounds off the queue in order, expands
// them into its reused buffer, and calls ConsumeTap.
type tapPump struct {
	fh     *Firehose
	sink   Sink
	rounds chan *tapRound
	free   chan *tapRound // delivered batches, for the next offers to refill
	stop   chan struct{}

	// admitted and delivered count the events of the rounds let into the
	// queue and of those handed to the sink: their difference is what the
	// queue holds, and delivered is Drain's progress witness.
	admitted  atomic.Uint64
	delivered atomic.Uint64

	buf      []TapEvent
	reported uint64 // fh.dropped as last told to the sink
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
		var r *tapRound
		select {
		case <-p.stop:
			return
		case r = <-p.rounds:
		default:
			// Nothing queued: hand over what is buffered, then sleep.
			p.flush()
			select {
			case <-p.stop:
				return
			case r = <-p.rounds:
			}
		}
		p.expand(r)
	}
}

// expand buffers one round's events and recycles its batch.
func (p *tapPump) expand(r *tapRound) {
	ro := &r.ro
	for _, b := range r.bids {
		// In place: a composite literal would be built aside and copied in.
		e := p.next()
		*e = TapEvent{}
		e.Kind, e.Job, e.Round, e.Node, e.Price = TapBidAccepted, ro.JobID, ro.Round, b.node, b.price
	}
	for i := range ro.Outcome.Winners {
		w := &ro.Outcome.Winners[i]
		*p.next() = TapEvent{Kind: TapWinner, Job: ro.JobID, Round: ro.Round,
			Node: w.Bid.NodeID, Price: w.Bid.Payment, Payment: w.Payment, Score: w.Score}
	}
	*p.next() = TapEvent{Kind: TapRoundClosed, Job: ro.JobID, Round: ro.Round,
		NumBids: ro.NumBids, Winners: len(ro.Outcome.Winners), Payment: ro.Outcome.TotalPayment(),
		Profit: ro.Outcome.AggregatorProfit, Latency: ro.Latency, Failed: ro.Err != nil}
	r.ro = RoundOutcome{} // the history decides how long the outcome lives
	select {
	case p.free <- r:
	default: // enough spares already
	}
}

// next returns the buffer slot of the next event, handing a full buffer to
// the sink first.
func (p *tapPump) next() *TapEvent {
	if len(p.buf) == tapBatch {
		p.flush()
	}
	p.buf = p.buf[:len(p.buf)+1]
	return &p.buf[len(p.buf)-1]
}

// flush hands the buffered events to the sink with the drops it has not
// been told of yet.
func (p *tapPump) flush() {
	if len(p.buf) == 0 {
		return
	}
	dropped := p.fh.dropped.Load()
	p.sink.ConsumeTap(p.buf, dropped-p.reported)
	p.reported = dropped
	p.delivered.Add(uint64(len(p.buf)))
	p.buf = p.buf[:0]
}
