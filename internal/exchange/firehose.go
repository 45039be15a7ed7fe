package exchange

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The firehose is the exchange's lock-free event tap: a fixed-size ring of
// one-cache-line seqlock slots written from the bid-intake and round-close
// hot paths and pumped to attached Sinks by per-sink goroutines. It follows
// the event stream's never-block rule end to end — a producer performs one
// fetch-add, the atomic stores of its event's kind (six for a bid) and one
// load of each pump's parked flag, then moves on, no matter how slow (or
// wedged) a sink is; a sink that cannot keep up loses the oldest events and
// the loss is counted, never smeared into producer latency.
//
// Nothing polls: a pump that runs out of published events parks, and the
// producer that publishes next wakes it (see tapPump.park). A pump that is
// busy is never poked, and an idle exchange wakes nobody.
//
// Until the first Attach the ring is not even allocated and every tap call
// is a single atomic load, so an exchange nobody observes pays nothing.

// tapRingDefault is the ring capacity used when Options.FirehoseRing is 0.
const tapRingDefault = 4096

// tapBatch caps the events decoded and handed to a sink per ConsumeTap
// call; it bounds the pump's scratch buffer and how long a sink call can
// monopolize ring history.
const tapBatch = 256

// drainSpins is how many scheduler yields Drain spends before it falls back
// to millisecond sleeps: a parked pump is delivering within microseconds of
// its wake-up, a wedged sink is not worth spinning on.
const drainSpins = 64

// TapKind enumerates firehose event kinds.
type TapKind uint8

const (
	// TapBidAccepted is one accepted sealed bid entering a round.
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
		return "round_closed"
	default:
		return "unknown"
	}
}

// TapEvent is one decoded firehose event. Fields beyond Kind/Job/Round are
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

// Sink consumes firehose batches. ConsumeTap receives events in
// publication order plus the number of events lost to ring overrun since
// the previous delivery. The events slice is the pump's reused scratch —
// a sink that retains events beyond the call must copy them. A sink may
// block (the pump stalls, the producers don't), but a blocked sink drops
// everything that laps the ring while it sleeps.
type Sink interface {
	ConsumeTap(events []TapEvent, dropped uint64)
}

// tapWords is the per-slot payload size: with its version word a slot is
// exactly one 64-byte cache line, and the ring (a power-of-two count of
// slots, at least a page) starts on one, so two producers on neighbouring
// claims and the pump behind them never share a line. Every event field
// packs into a fixed word so slots can be plain atomics — the seqlock stays
// clean under the race detector, and a torn read is detected by the version
// recheck instead of being undefined behavior.
const tapWords = 7

// Payload word layout (all stored as uint64 bit patterns). Words 0 and 1
// mean the same for every kind; a producer stores, and the pump loads, only
// the first tapKindWords[kind] words, so a slot may hold stale words of an
// older event of a longer kind beyond them. No field is narrowed: the kind
// shares word 0 with the job index, which is 32 bits at its source
// (Job.tapIdx), and every integer keeps a whole word.
const (
	twHead    = 0 // TapKind | failed flag <<8 | interned job index <<32
	twRound   = 1 // round number
	twNode    = 2 // bid, winner: node ID
	twPrice   = 3 // bid, winner: asked payment (float64 bits)
	twNumBids = 2 // round closed: bid count
	twWinners = 3 // round closed: winner count
	twPayment = 4 // winner: granted payment; round closed: total (float64 bits)
	twScore   = 5 // winner: score (float64 bits)
	twProfit  = 5 // round closed: aggregator profit (float64 bits)
	twLatency = 6 // round closed: close latency (nanoseconds)
)

const (
	tapFailedFlag = 1 << 8
	tapJobShift   = 32
)

// tapKindWords is how many payload words each kind stores, indexed by word
// 0's low byte; 0 marks a byte that is no kind (only ever read from a slot
// torn mid-copy).
var tapKindWords = [256]uint8{TapBidAccepted: 4, TapWinner: 6, TapRoundClosed: 7}

// tapSlot is one seqlock slot. ver encodes both the write state and the
// claim the slot holds: a writer for claim index i stores 2i+1 (busy),
// then the payload, then 2i+2 (stable). A reader accepts the payload only
// when ver reads exactly 2i+2 before and after the copy, so a reader
// lapped mid-copy observes the version move and discards the torn words —
// including a word 0 that named another kind than the words after it.
// The one theoretical hole — two producers claiming i and i+size
// concurrently, i.e. the whole ring published within one producer's
// ~nanoseconds-long store sequence — would require a ring many orders of
// magnitude smaller than the minimum enforced below.
type tapSlot struct {
	ver atomic.Uint64
	w   [tapWords]atomic.Uint64
}

// Firehose is the exchange's event tap; obtain it via Exchange.Firehose.
type Firehose struct {
	size uint64
	mask uint64

	// head counts events ever published; an event's claim index is
	// head-before-increment and its slot is claim & mask.
	head atomic.Uint64

	// ring is nil until the first Attach — the producer fast path when
	// nobody listens is the single pointer load.
	ring atomic.Pointer[[]tapSlot]

	// lookup is the interned job-ID table (append-only, copy-on-write).
	// Slots store job indices because strings cannot be stored atomically.
	lookup atomic.Pointer[[]string]

	// pumps is the attached sink set (copy-on-write under mu).
	pumps atomic.Pointer[[]*tapPump]

	// detachedDrops accumulates the drop counts of detached pumps so the
	// exchange-wide total never goes backwards.
	detachedDrops atomic.Uint64

	mu sync.Mutex // guards Attach/detach and the intern append
}

func newFirehose(ringSize int) *Firehose {
	if ringSize <= 0 {
		ringSize = tapRingDefault
	}
	if ringSize < 64 {
		ringSize = 64
	}
	size := uint64(1) << bits.Len64(uint64(ringSize-1)) // round up to 2^n
	f := &Firehose{size: size, mask: size - 1}
	f.lookup.Store(new([]string))
	f.pumps.Store(new([]*tapPump))
	return f
}

// enabled reports whether events are being recorded (some sink attached at
// least once). This is the producers' fast-path gate.
func (f *Firehose) enabled() bool { return f.ring.Load() != nil }

// intern maps the job to its index in the lookup table, assigning one on
// first use. The assignment allocates (once per job lifetime, never on the
// steady-state path) and publishes the grown table before returning, so an
// event carrying the new index can never be decoded against a table that
// lacks it by a reader that loads the table after reading the event.
func (f *Firehose) intern(j *Job) uint64 {
	if v := j.tapIdx.Load(); v != 0 {
		return uint64(v - 1)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := j.tapIdx.Load(); v != 0 { // lost the race to another producer
		return uint64(v - 1)
	}
	old := *f.lookup.Load()
	grown := make([]string, len(old)+1)
	copy(grown, old)
	idx := uint64(len(old))
	grown[idx] = j.id
	f.lookup.Store(&grown)
	j.tapIdx.Store(uint32(idx) + 1)
	return idx
}

// jobName resolves an interned index, reloading the table if the local
// snapshot predates the index's publication.
func (f *Firehose) jobName(idx uint64, names []string) string {
	if idx < uint64(len(names)) {
		return names[idx]
	}
	if fresh := *f.lookup.Load(); idx < uint64(len(fresh)) {
		return fresh[idx]
	}
	return "" // unreachable by the intern ordering; defend anyway
}

// emit claims the next slot and publishes the words of the event's kind;
// callers have checked enabled. Producers never loop, lock or wait: the
// cost is one fetch-add, the kind's words between two version stores (six
// atomic stores for a bid), and one load of each pump's parked flag — only
// a pump that is asleep is woken.
func (f *Firehose) emit(w *[tapWords]uint64) {
	i := f.head.Add(1) - 1
	s := &(*f.ring.Load())[i&f.mask]
	s.ver.Store(2*i + 1)
	for k := range w[:tapKindWords[TapKind(w[twHead])]] {
		s.w[k].Store(w[k])
	}
	s.ver.Store(2*i + 2)
	for _, p := range *f.pumps.Load() {
		p.unpark()
	}
}

// tapHead packs an event's word 0.
func tapHead(k TapKind, job uint64) uint64 { return uint64(k) | job<<tapJobShift }

// bidAccepted taps one accepted bid.
func (f *Firehose) bidAccepted(j *Job, round, node int, price float64) {
	if !f.enabled() {
		return
	}
	f.emit(&[tapWords]uint64{
		twHead:  tapHead(TapBidAccepted, f.intern(j)),
		twRound: uint64(round),
		twNode:  uint64(int64(node)),
		twPrice: math.Float64bits(price),
	})
}

// roundClosed taps one completed round: a TapWinner per selected bid, then
// the TapRoundClosed summary. Callers hold the job's closeMu, which keeps a
// job's rounds in order on the ring; only scalars are copied out of the
// (immutable) outcome.
func (f *Firehose) roundClosed(j *Job, ro *RoundOutcome) {
	if !f.enabled() {
		return
	}
	idx := f.intern(j)
	for i := range ro.Outcome.Winners {
		win := &ro.Outcome.Winners[i]
		f.emit(&[tapWords]uint64{
			twHead:    tapHead(TapWinner, idx),
			twRound:   uint64(ro.Round),
			twNode:    uint64(int64(win.Bid.NodeID)),
			twPrice:   math.Float64bits(win.Bid.Payment),
			twPayment: math.Float64bits(win.Payment),
			twScore:   math.Float64bits(win.Score),
		})
	}
	head := tapHead(TapRoundClosed, idx)
	if ro.Err != nil {
		head |= tapFailedFlag
	}
	f.emit(&[tapWords]uint64{
		twHead:    head,
		twRound:   uint64(ro.Round),
		twNumBids: uint64(ro.NumBids),
		twWinners: uint64(len(ro.Outcome.Winners)),
		twPayment: math.Float64bits(ro.Outcome.TotalPayment()),
		twProfit:  math.Float64bits(ro.Outcome.AggregatorProfit),
		twLatency: uint64(ro.Latency.Nanoseconds()),
	})
}

// decode expands the words of the event's kind into ev; fields of other
// kinds are zeroed.
func decode(ev *TapEvent, w *[tapWords]uint64, job string) {
	*ev = TapEvent{Kind: TapKind(w[twHead]), Job: job, Round: int(int64(w[twRound]))}
	switch ev.Kind {
	case TapWinner:
		ev.Payment = math.Float64frombits(w[twPayment])
		ev.Score = math.Float64frombits(w[twScore])
		fallthrough
	case TapBidAccepted:
		ev.Node = int(int64(w[twNode]))
		ev.Price = math.Float64frombits(w[twPrice])
	case TapRoundClosed:
		ev.Failed = w[twHead]&tapFailedFlag != 0
		ev.NumBids = int(int64(w[twNumBids]))
		ev.Winners = int(int64(w[twWinners]))
		ev.Payment = math.Float64frombits(w[twPayment])
		ev.Profit = math.Float64frombits(w[twProfit])
		ev.Latency = time.Duration(w[twLatency])
	}
}

// Attach subscribes a sink from the current position of the stream (no
// replay) and returns its detach function. The first Attach allocates the
// ring and turns recording on; recording stays on afterwards (the tap is
// a bounded handful of atomic stores, not worth a producer-visible toggle).
// Detach is signal-only and idempotent: it never waits on the pump, so a
// sink wedged inside ConsumeTap cannot wedge the caller.
func (f *Firehose) Attach(s Sink) (detach func()) {
	f.mu.Lock()
	if f.ring.Load() == nil {
		ring := make([]tapSlot, f.size)
		f.ring.Store(&ring)
	}
	p := &tapPump{
		sink: s,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		buf:  make([]TapEvent, 0, tapBatch),
	}
	p.read.Store(f.head.Load())
	p.consumed.Store(p.read.Load())
	f.addPump(p)
	f.mu.Unlock()
	go p.run(f)

	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			f.removePump(p)
			// Freeze the pump's loss into the exchange-wide total; drops
			// after this point have no audience.
			f.detachedDrops.Add(p.dropped.Load() + f.lag(p))
			f.mu.Unlock()
			close(p.stop)
		})
	}
}

// addPump and removePump maintain the copy-on-write pump set; callers hold
// f.mu.
func (f *Firehose) addPump(p *tapPump) {
	old := *f.pumps.Load()
	grown := append(old[:len(old):len(old)], p)
	f.pumps.Store(&grown)
}

func (f *Firehose) removePump(p *tapPump) {
	old := *f.pumps.Load()
	kept := make([]*tapPump, 0, len(old))
	for _, q := range old {
		if q != p {
			kept = append(kept, q)
		}
	}
	f.pumps.Store(&kept)
}

// lag is how many published events the pump can no longer deliver because
// the ring has lapped past its cursor — the live component of its drop
// count (a wedged sink's loss keeps growing here while the pump is stuck
// inside ConsumeTap and cannot update its own counter).
func (f *Firehose) lag(p *tapPump) uint64 {
	if behind := f.head.Load() - p.read.Load(); behind > f.size {
		return behind - f.size
	}
	return 0
}

// Stats returns the events published since recording began and the total
// events dropped across all sinks, past and present.
func (f *Firehose) Stats() (published, dropped uint64) {
	published = f.head.Load()
	dropped = f.detachedDrops.Load()
	for _, p := range *f.pumps.Load() {
		dropped += p.dropped.Load() + f.lag(p)
	}
	return published, dropped
}

// Drain blocks until every currently attached sink has been offered all
// events published before the call (delivered or counted dropped), or ctx
// expires. It is a test and shutdown aid — producers never call it.
func (f *Firehose) Drain(ctx context.Context) error {
	target := f.head.Load()
	for spins := 0; ; spins++ {
		settled := true
		for _, p := range *f.pumps.Load() {
			if p.consumed.Load() < target {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
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
}

// stopAll signals every pump to exit without waiting for any of them (a
// wedged sink must not wedge Exchange.Close).
func (f *Firehose) stopAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range *f.pumps.Load() {
		select {
		case <-p.stop:
		default:
			close(p.stop)
		}
	}
}

// tapPump drives one sink: it chases the ring's head, decodes batches into
// a reused buffer, and calls ConsumeTap. All ring consumption state lives
// here, so sinks compose without sharing cursors.
type tapPump struct {
	sink Sink
	wake chan struct{} // capacity 1: one pending wake-up is all a sleeper needs
	stop chan struct{}
	done chan struct{}

	// parked is true while the pump sleeps (or is about to) on wake. It is
	// the one pump word producers load per event, so it is kept a cache
	// line away from the cursors the pump rewrites per batch.
	parked atomic.Bool
	_      [64]byte

	// read is the next claim index to decode; consumed trails it, advancing
	// only after ConsumeTap returns (Drain's progress witness). dropped
	// accumulates overrun losses already reported (or about to be) to the
	// sink; the still-growing loss of a currently stuck sink is the live
	// lag, computed against read by Firehose.lag.
	read     atomic.Uint64
	consumed atomic.Uint64
	dropped  atomic.Uint64

	buf []TapEvent
}

// unpark wakes the pump if it sleeps; producers call it after publishing.
// The flag's compare-and-swap elects one waker per sleep, so a burst of
// producers pays one channel send between them.
func (p *tapPump) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		select {
		case p.wake <- struct{}{}:
		default: // a wake-up the pump has not taken yet is still pending
		}
	}
}

// park sleeps until a producer publishes after the pump raised its flag, or
// the pump is stopped (reported as false). s is the slot the cursor waits
// on — the next claim's, whether nobody has claimed it yet or its producer
// is still between the fetch-add and the final version store. The pump
// stores parked and then re-reads the version; the producer stores the
// version and then reads parked: whichever comes second sees the other, so
// no wake-up is lost and nothing needs to poll. A wake-up raced by the
// pump's own re-check stays in the channel and costs one empty pass later.
func (p *tapPump) park(s *tapSlot, want uint64) bool {
	p.parked.Store(true)
	if s.ver.Load() >= want {
		p.parked.Store(false)
		return true
	}
	select {
	case <-p.stop:
		return false
	case <-p.wake:
		return true
	}
}

func (p *tapPump) run(f *Firehose) {
	defer close(p.done)
	ring := *f.ring.Load()
	read := p.read.Load()
	var pendingDrop uint64
	var w [tapWords]uint64
	for {
		names := *f.lookup.Load()
		job, name := ^uint64(0), "" // the run of equal job indices being decoded
		p.buf = p.buf[:0]
		for len(p.buf) < tapBatch {
			s := &ring[read&f.mask]
			want := 2*read + 2
			ver := s.ver.Load()
			if ver < want {
				// Nobody claimed the slot yet, or its writer has not finished
				// publishing; take what we have and come back.
				break
			}
			if ver == want {
				w[twHead] = s.w[twHead].Load()
				for k := 1; k < int(tapKindWords[TapKind(w[twHead])]); k++ {
					w[k] = s.w[k].Load()
				}
				ver = s.ver.Load()
			}
			if ver != want {
				// Overrun: the ring lapped the cursor, before the copy or
				// during it (the words are torn). Everything older than one
				// ring of history is gone; count it and jump forward.
				lost := f.head.Load() - f.size - read
				p.dropped.Add(lost)
				pendingDrop += lost
				read += lost
				continue
			}
			read++
			if idx := w[twHead] >> tapJobShift; idx != job {
				job, name = idx, f.jobName(idx, names)
			}
			p.buf = p.buf[:len(p.buf)+1]
			decode(&p.buf[len(p.buf)-1], &w, name)
		}
		p.read.Store(read)
		if len(p.buf) > 0 {
			p.sink.ConsumeTap(p.buf, pendingDrop)
			pendingDrop = 0
		}
		p.consumed.Store(read)
		select {
		case <-p.stop:
			return
		default:
		}
		// Nothing deliverable at the cursor: sleep until its slot is
		// published instead of coming straight back to look again.
		if len(p.buf) == 0 && !p.park(&ring[read&f.mask], 2*read+2) {
			return
		}
	}
}
