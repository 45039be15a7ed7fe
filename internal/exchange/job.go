package exchange

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
)

// Sentinel errors of the job lifecycle.
var (
	// ErrUnknownJob reports a job ID the exchange does not host.
	ErrUnknownJob = errors.New("exchange: unknown job")
	// ErrJobClosed reports an operation on a finished job.
	ErrJobClosed = errors.New("exchange: job is closed")
	// ErrDuplicateBid reports a second bid from the same node in one round
	// (sealed-bid auctions admit one bid per bidder per round).
	ErrDuplicateBid = errors.New("exchange: node already bid this round")
	// ErrBelowQuorum reports a round-close attempt with fewer bids than the
	// job's quorum; the round stays open and collecting.
	ErrBelowQuorum = errors.New("exchange: not enough bids to close the round")
	// ErrRoundPending reports a round that has not completed yet.
	ErrRoundPending = errors.New("exchange: round not completed yet")
	// ErrOutcomeEvicted reports a round older than the job's retained
	// outcome window.
	ErrOutcomeEvicted = errors.New("exchange: outcome evicted from history")
	// ErrNotRegistered reports a bid from an unknown node on an exchange
	// requiring registration.
	ErrNotRegistered = errors.New("exchange: node is not registered")
	// ErrNoStrategy reports a strategy request against a job whose spec
	// carries no equilibrium game description.
	ErrNoStrategy = errors.New("exchange: job has no equilibrium game configured")
	// ErrBlacklisted reports a bid from a banned node.
	ErrBlacklisted = errors.New("exchange: node is blacklisted")
)

// JobSpec configures one hosted FL task.
type JobSpec struct {
	// ID names the job; when empty the exchange assigns "job-<n>".
	ID string
	// Auction is the per-job auction configuration (rule, K, payment, ψ),
	// validated by auction.NewAuctioneer.
	Auction auction.Config
	// Seed drives the job's private auctioneer rng, making per-job outcomes
	// deterministic for a fixed bid set.
	Seed int64
	// BidWindow is the per-round bid-collection window. When positive, a
	// job goroutine closes the round at each context deadline; when zero
	// the job is manually driven (CloseRound).
	BidWindow time.Duration
	// MaxRounds closes the job after that many completed rounds
	// (0 = unlimited).
	MaxRounds int
	// MinBids is the round quorum: a window that expires with fewer bids is
	// an idle tick and the round keeps collecting (default 1).
	MinBids int
	// KeepOutcomes bounds the retained outcome history per job
	// (default 128); older rounds are evicted.
	KeepOutcomes int
	// Equilibrium optionally describes the bidder-side game (cost family, θ
	// distribution, population size, quality box). When set, the exchange
	// solves Theorem 1's symmetric equilibrium lazily and serves the bid
	// curve from GET /jobs/{id}/strategy, so edge clients need not run the
	// solver locally. Validated (not solved) at job creation.
	Equilibrium *auction.EquilibriumSpec
}

func (s *JobSpec) setDefaults() {
	if s.MinBids < 1 {
		s.MinBids = 1
	}
	if s.KeepOutcomes <= 0 {
		s.KeepOutcomes = 128
	}
}

// RoundOutcome is one completed auction round of a job. Every holder of a
// round shares one Outcome: treat it as immutable (see CloseRound).
type RoundOutcome struct {
	// JobID and Round identify the round (rounds are 1-based).
	JobID string
	Round int
	// NumBids is the size of the scored bid set. Outcome.Scores is indexed
	// by the round's bids in ascending NodeID order (the exchange's
	// canonical ordering).
	NumBids int
	// Outcome is the auction engine's result; zero when Err is set.
	Outcome auction.Outcome
	// Latency is the close-to-outcome duration (scoring + winner
	// determination), the quantity behind the p99 metric.
	Latency time.Duration
	// Err records a failed round (a poisoned bid set). Failed rounds stay
	// in history so round numbering remains contiguous.
	Err error
}

// Job is one hosted FL task: an auctioneer plus a round state machine. All
// exported methods are safe for concurrent use.
type Job struct {
	id   string
	spec JobSpec
	ex   *Exchange

	ctx    context.Context
	cancel context.CancelFunc

	// closed is the job's lifecycle flag. It is written inside j.mu critical
	// sections (and by single-threaded WAL replay) but read lock-free on the
	// bid-intake fast path, so bidders never touch j.mu.
	closed atomic.Bool

	// intake is the striped bid-ingestion front: P shards, each with its own
	// lock, buffer, dedup table, pending count and round label. Bid
	// submission touches only its shard; the round close drains all shards
	// once. See intake.go.
	intake *intake

	// admit is the job's admission bucket (nil when admission is off or the
	// job level is unlimited). Immutable after newJob, so the submit path
	// reads it without synchronization.
	admit *admission.Bucket

	// mu guards the round/history state: the round counter, the outcome
	// history (changed only with closeMu held as well), the scoring flag and
	// the round-completion broadcast channel.
	mu      sync.Mutex
	scoring bool
	round   int // current collecting round, 1-based
	hist    history
	doneCh  chan struct{} // lazily armed; closed (and cleared) on every state change

	// closeMu serializes round closes; everything below it is scratch reused
	// across rounds, so all a steady-state close allocates is the outcome it
	// hands to the history: gather collects the drained shard buffers,
	// sorted and the two key buffers hold the canonical order, freeRecs
	// recycles the encoded records evicted from history, and walScratch is
	// the reusable WAL round record (safe because logRound encodes
	// synchronously before returning). The auctioneer carries the job's
	// pooled auction.Selector, so scoring and winner determination reuse
	// their buffers round after round too.
	closeMu    sync.Mutex
	gather     []auction.Bid
	sorted     []auction.Bid
	sortKeys   []int64
	sortSwap   []int64
	freeRecs   [][]byte
	auct       *auction.Auctioneer
	src        *countingSource
	loopDone   chan struct{} // non-nil iff a bid-window goroutine runs
	walScratch struct {
		rec     walRound
		winners []walWinner
		bidders []int
	}

	// snapSpec caches the job's serialized spec for snapshots (the spec is
	// immutable); guarded by the exchange's compactMu.
	snapSpec []byte

	// strategyOnce guards the lazy equilibrium solve; concurrent strategy
	// requests share one solve and its cached result. strategyCfg is the
	// game configuration validated at job creation — solving always uses
	// exactly what was validated.
	strategyOnce sync.Once
	strategyCfg  *auction.EquilibriumConfig
	strategy     *auction.Strategy
	strategyErr  error

	// scoreMax bounds an accepted bid's |s(q) − p|, MaxFloat64/(2K);
	// valueBox bounds the qualities whose s(q) submit need not evaluate to
	// know it is within scoreMax/2 (scoreInRange).
	scoreMax, valueBox float64
}

// countingSource wraps the job's seeded rng source and counts every step it
// takes. The count is written into each round's outcome-log record, and
// recovery fast-forwards a fresh source by exactly that many steps — so the
// post-restart draw sequence (tiebreaks, ψ-admissions, Float64 retries
// alike) is bit-for-bit the sequence the uncrashed process would have
// produced, no matter how many draws each round consumed.
type countingSource struct {
	src rand.Source64
	n   int64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// fastForwardTo advances the source to the given cumulative step count
// (no-op if already there or past).
func (c *countingSource) fastForwardTo(target int64) {
	for c.n < target {
		c.Int63()
	}
}

// ID returns the job's exchange-wide identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized configuration.
func (j *Job) Spec() JobSpec { return j.spec }

// Round returns the currently collecting round (1-based).
func (j *Job) Round() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.round
}

// PendingBids returns the size of the current round's bid buffer.
func (j *Job) PendingBids() int {
	return j.intake.pending()
}

// State describes the job for monitoring: "collecting", "scoring" or
// "closed".
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed.Load():
		return "closed"
	case j.scoring:
		return "scoring"
	default:
		return "collecting"
	}
}

// submit appends one sealed bid to the current round. The job takes
// ownership of the bid (the caller must not mutate Qualities afterwards).
// The fast path touches only the node's intake shard — never j.mu — so
// concurrent bidders serialize only on stripe collisions. accepted and
// onAccept are the acceptance side effects, run inside the shard critical
// section (see intake.submit). A bid whose score s(q) − p lies outside
// ±MaxFloat64/(2K) is refused here (see scoreInRange): finite qualities
// and payments can still overflow a score, or the aggregator profit over K
// winners, and a round record that will not encode degrades a durable
// exchange.
func (j *Job) submit(b auction.Bid, accepted *atomic.Int64, onAccept func()) (round int, err error) {
	if err := b.Validate(j.spec.Auction.Rule.Dims()); err != nil {
		return 0, err
	}
	if !j.scoreInRange(b) {
		return 0, fmt.Errorf("bid from node %d: score %v outside ±%v, the bound that keeps a %d-winner round's profit finite",
			b.NodeID, j.spec.Auction.Rule.Value(b.Qualities)-b.Payment, j.scoreMax, j.spec.Auction.K)
	}
	return j.intake.submit(b, &j.closed, accepted, onAccept)
}

// scoreInRange reports whether the bid's score s(q) − p lies within
// ±scoreMax, MaxFloat64/(2K). Then each winner's term s(q) − pay of the
// aggregator profit is within about ±scoreMax too (pay is p, or s(q) minus
// a score in [0, scoreMax] under second price), so their sum over K
// winners is finite. A bid inside the job's valueBox, with |p| at most
// scoreMax/2, scores within ±scoreMax by construction, so only one outside
// it pays for evaluating s(q).
func (j *Job) scoreInRange(b auction.Bid) bool {
	inside := math.Abs(b.Payment) <= j.scoreMax/2
	for _, q := range b.Qualities {
		inside = inside && math.Abs(q) <= j.valueBox
	}
	return inside || math.Abs(j.spec.Auction.Rule.Value(b.Qualities)-b.Payment) <= j.scoreMax
}

// valueBoxFor returns a bound T such that every quality vector in
// [−T, T]^m has |s(q)| ≤ bound under rule. A rule is non-decreasing in
// every coordinate, so s(q) lies between s(−T, …, −T) and s(T, …, T); the
// largest T tried whose two corners are inside is returned, and −1 (no
// box: every bid is evaluated) when none is.
func valueBoxFor(rule auction.ScoringRule, bound float64) float64 {
	corner := make([]float64, rule.Dims())
	inside := func(t float64) bool {
		for i := range corner {
			corner[i] = t
		}
		return math.Abs(rule.Value(corner)) <= bound
	}
	for t := math.MaxFloat64; t >= 1; t /= 16 {
		if inside(t) && inside(-t) {
			return t
		}
	}
	return -1
}

// canonicalize orders a round's bid set ascending by NodeID. Node IDs that
// fit in 31 bits — every realistic population — sort as packed
// (NodeID, position) int64 keys: no per-compare closure, 8-byte element
// moves instead of 40, then one permutation pass into a reused scratch
// buffer. Slates of radixMinSlate bids and more radix-sort the keys, smaller
// ones compare-sort them. Out-of-range IDs fall back to sorting the records
// in place; all three produce the identical (total, dedup-guaranteed)
// order. Callers hold closeMu; the returned slice is valid until the next
// close.
func (j *Job) canonicalize(bids []auction.Bid) []auction.Bid {
	if cap(j.sortKeys) < len(bids) {
		j.sortKeys = make([]int64, 0, cap(bids))
	}
	keys := j.sortKeys[:0]
	var idBits uint64 // OR of every node ID: its length bounds the radix passes
	for i := range bids {
		id := uint64(bids[i].NodeID)
		if id >= 1<<31 { // negative IDs wrap past the bound too
			slices.SortFunc(bids, func(a, b auction.Bid) int { return cmp.Compare(a.NodeID, b.NodeID) })
			return bids
		}
		idBits |= id
		keys = append(keys, int64(id<<32)|int64(i))
	}
	if len(keys) < radixMinSlate {
		slices.Sort(keys)
	} else {
		if cap(j.sortSwap) < len(keys) {
			j.sortSwap = make([]int64, cap(keys))
		}
		// The sorted keys come back in either buffer; the job keeps both.
		keys, j.sortSwap = radixSortKeys(keys, j.sortSwap[:len(keys)], bits.Len64(idBits))
	}
	j.sortKeys = keys
	if cap(j.sorted) < len(bids) {
		j.sorted = make([]auction.Bid, 0, cap(bids))
	}
	out := j.sorted[:len(bids)]
	for i, k := range keys {
		out[i] = bids[uint32(k)]
	}
	j.sorted = out
	return out
}

// radixMinSlate is the slate size from which canonicalize radix-sorts the
// packed keys. A pass costs about 2 µs before the first key moves (a
// 2,048-entry histogram and its prefix sum), so where radix overtakes
// slices.Sort depends on how many passes the largest ID asks for:
// BenchmarkKeySort puts it near 200 bids for dense IDs (one pass) and near
// 1,100 for 31-bit IDs (three). At 1,024 the former is 2× ahead and the
// latter within 3 µs of even.
const radixMinSlate = 1024

// radixDigit is the radix sort's digit width in bits: 2,048 counters of
// four bytes stay inside the L1 cache, and 31 ID bits are three passes.
const radixDigit = 11

// radixSortKeys sorts packed (NodeID<<32 | position) keys whose IDs have at
// most idBits significant bits, using swap (same length) as the other
// buffer. The keys arrive in position order, so a stable least-significant-
// digit sort over the ID bits alone yields the order slices.Sort gives the
// whole key. It returns the buffer holding the result and the other one.
func radixSortKeys(keys, swap []int64, idBits int) (sorted, other []int64) {
	for shift := 32; shift < 32+idBits; shift += radixDigit {
		var count [1 << radixDigit]uint32
		for _, k := range keys {
			count[uint64(k)>>shift&(1<<radixDigit-1)]++
		}
		sum := uint32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := uint64(k) >> shift & (1<<radixDigit - 1)
			swap[count[d]] = k
			count[d]++
		}
		keys, swap = swap, keys
	}
	return keys, swap
}

// takeRec pops a recycled record buffer, or sizes a new one like the
// previous round's record (same job, same slate shape). Callers hold
// closeMu, which also covers the read of the history: it only changes under
// closeMu and j.mu together.
func (j *Job) takeRec() []byte {
	if n := len(j.freeRecs); n > 0 {
		rec := j.freeRecs[n-1]
		j.freeRecs = j.freeRecs[:n-1]
		return rec[:0]
	}
	hint := 0
	if n := len(j.hist.entries); n > 0 {
		hint = cap(j.hist.entries[n-1].rec)
	}
	return make([]byte, 0, hint)
}

// releaseRec recycles an evicted round's record bytes — unless a snapshot
// is streaming: it may reference exactly these bytes (captured under
// closeMu, written after it dropped), so the buffer is left to the garbage
// collector instead of being overwritten by a later round. Callers hold
// closeMu.
func (j *Job) releaseRec(rec []byte) {
	if rec != nil && !j.ex.snapStreaming.Load() {
		j.freeRecs = append(j.freeRecs, rec)
	}
}

// CloseRound closes the job's current collecting round now: it drains the
// intake shards, puts the bids in canonical order, runs the job's auctioneer
// on them and publishes the outcome. It returns ErrBelowQuorum (round keeps
// collecting) when the intake is under quorum.
//
// Ownership: winner determination returns the one owning copy of the
// round's outcome. The history keeps it; the caller, every read accessor
// and every round_closed event share it as is. It is never written again —
// eviction from the KeepOutcomes window only drops the history's reference
// — so holders may read it at any pace from any goroutine, and none may
// mutate it (Outcome.Clone gives a private copy).
func (j *Job) CloseRound() (RoundOutcome, error) {
	j.closeMu.Lock()
	defer j.closeMu.Unlock()

	start := time.Now()
	if j.closed.Load() {
		return RoundOutcome{}, ErrJobClosed
	}
	// A degraded replica must not close rounds: the outcome would be
	// acknowledged to clients but its record can no longer reach disk, and
	// a lost acknowledged outcome is the one thing this system promises
	// never to produce. The collected bids stay in the intake, so a
	// recovered (restarted) replica closes the round with nothing lost.
	if err := j.ex.degradedErr(); err != nil {
		return RoundOutcome{}, err
	}
	if got := j.intake.pending(); got < j.spec.MinBids {
		j.ex.metrics.idleTicks.Add(1)
		return RoundOutcome{}, fmt.Errorf("%w: %d/%d", ErrBelowQuorum, got, j.spec.MinBids)
	}
	bids := j.intake.drain(j.gather[:0])
	j.gather = bids

	j.mu.Lock()
	round := j.round
	// Advance the collecting round at drain time: bids accepted after their
	// shard was drained belong to — and were labeled as — the next round.
	j.round++
	j.scoring = true
	j.mu.Unlock()

	// Canonical order: the outcome must not depend on concurrent arrival
	// order, only on the bid set — that is what makes seeded runs
	// deterministic under concurrency. Node IDs are unique within a round
	// (dedup), so the unstable sort is total.
	bids = j.canonicalize(bids)

	var bidders []int
	if j.ex.wal != nil {
		bidders = j.walScratch.bidders[:0]
		for i := range bids {
			bidders = append(bidders, bids[i].NodeID)
		}
		j.walScratch.bidders = bidders
	}

	// Run returns an owning copy, so the bid buffers are free to reuse.
	outcome, err := j.auct.Run(bids)

	ro := RoundOutcome{
		JobID:   j.id,
		Round:   round,
		NumBids: len(bids),
		Outcome: outcome,
		Latency: time.Since(start),
	}
	if err != nil {
		// The round's bids are consumed either way: a poisoned bid set must
		// not wedge the job forever. The failed round is recorded so the
		// history stays contiguous.
		ro.Err = fmt.Errorf("exchange: job %s round %d: %w", j.id, round, err)
	}
	// Persist before publishing; the append is a channel hand-off to the log
	// writer (the record bytes are encoded before it returns, so the scratch
	// record is free to reuse). j.src.n is stable here: only Run draws from
	// it, and closeMu is held.
	rec := j.logRound(ro, bidders)

	j.mu.Lock()
	j.scoring = false
	j.releaseRec(j.hist.push(historyEntry{ro, rec}, j.spec.KeepOutcomes))
	// !closed: a concurrent Close/RemoveJob may have already finished the
	// job while we were scoring, and its close must not be redone here.
	maxed := !j.closed.Load() && j.spec.MaxRounds > 0 && j.round > j.spec.MaxRounds
	if maxed {
		j.closed.Store(true)
	}
	j.broadcastLocked()
	j.mu.Unlock()

	// Tap the completed round — its sealed bids included, now that they are
	// scored — while closeMu still orders it before the job's next one and
	// the canonical slate is still this round's.
	j.ex.fh.offer(&ro, bids)
	if maxed {
		j.cancel()
		j.ex.logJobClosed(j.id)
	}
	if ro.Err == nil {
		j.ex.metrics.observeRound(ro.Latency)
	} else {
		j.ex.metrics.roundsFailed.Add(1)
	}
	return ro, ro.Err
}

// broadcastLocked wakes every outcome waiter and event stream; callers hold
// j.mu. The channel is armed lazily by waitChLocked, so rounds with no
// waiters don't allocate a fresh channel per close.
func (j *Job) broadcastLocked() {
	if j.doneCh != nil {
		close(j.doneCh)
		j.doneCh = nil
	}
}

// waitChLocked returns the channel the next broadcast will close, arming it
// if needed; callers hold j.mu.
func (j *Job) waitChLocked() chan struct{} {
	if j.doneCh == nil {
		j.doneCh = make(chan struct{})
	}
	return j.doneCh
}

// loop drives timer-mode jobs: one context deadline per bid window.
// Deadlines are anchored to a fixed schedule (next = previous deadline +
// window) rather than re-derived from "now" after each close, so scoring
// latency does not stretch the effective period and windows never drift
// under load.
func (j *Job) loop() {
	defer close(j.loopDone)
	next := time.Now().Add(j.spec.BidWindow)
	for {
		windowCtx, cancel := context.WithDeadline(j.ctx, next)
		<-windowCtx.Done()
		cancel()
		if j.ctx.Err() != nil {
			return
		}
		if _, err := j.CloseRound(); errors.Is(err, ErrJobClosed) {
			return
		}
		next = nextWindowDeadline(next, time.Now(), j.spec.BidWindow)
	}
}

// nextWindowDeadline returns the deadline one window after prev, skipping
// to the first grid point strictly after now when a round close overran one
// or more whole windows — the schedule stays on the original grid instead
// of firing a burst of catch-up closes.
func nextWindowDeadline(prev, now time.Time, window time.Duration) time.Time {
	next := prev.Add(window)
	if !next.After(now) {
		behind := now.Sub(next)
		next = next.Add(behind - behind%window + window)
	}
	return next
}

// Close finishes the job: pending and future bids are rejected, waiters are
// woken, and (in timer mode) the window goroutine stops. Idempotent.
func (j *Job) Close() {
	j.close(true)
}

// close implements Close. record says whether a job-closed record belongs
// in the outcome log: a deliberate finish (MaxRounds, caller Close, DELETE)
// is logged so the job stays closed after recovery, while exchange shutdown
// is not — stopping the process must not close every job forever.
func (j *Job) close(record bool) {
	j.mu.Lock()
	if j.closed.Load() {
		j.mu.Unlock()
		return
	}
	j.closed.Store(true)
	j.broadcastLocked()
	j.mu.Unlock()
	j.cancel()
	if record {
		j.ex.logJobClosed(j.id)
	}
}

// Outcome returns the completed round without blocking. For a failed round
// the stored error is returned alongside the record. Like every read
// accessor it returns the retained value itself (see CloseRound).
func (j *Job) Outcome(round int) (RoundOutcome, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ro, err, _ := j.outcomeLocked(round)
	return ro, err
}

// outcomeLocked resolves a round; pending reports "not completed yet" (the
// only state WaitOutcome keeps waiting on). Callers hold j.mu.
func (j *Job) outcomeLocked(round int) (ro RoundOutcome, err error, pending bool) {
	ro, found, err := j.hist.at(round)
	switch {
	case found:
		return ro, ro.Err, false
	case err != nil:
		return RoundOutcome{}, err, false
	case j.closed.Load():
		return RoundOutcome{}, ErrJobClosed, false
	}
	return RoundOutcome{}, fmt.Errorf("%w: round %d", ErrRoundPending, round), true
}

// OutcomesAfter returns up to limit retained rounds with numbers strictly
// greater than after, oldest first, and reports whether more retained
// rounds remain past the returned page. It backs the v1 cursor-paginated
// outcome listing; failed rounds are included (their Err set) so pages stay
// contiguous.
func (j *Job) OutcomesAfter(after, limit int) (page []RoundOutcome, more bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hist.after(after, limit)
}

// Latest returns the most recent completed round, if any.
func (j *Job) Latest() (RoundOutcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hist.latest()
}

// WaitLatest blocks until at least one round has completed and returns the
// most recent one (with its stored error, if the round failed). This is the
// race-free "give me an outcome" default of the HTTP front end: waiting on
// the currently-collecting round number instead would race with the bid
// window closing.
func (j *Job) WaitLatest(ctx context.Context) (RoundOutcome, error) {
	return j.wait(ctx, func() (RoundOutcome, error, bool) {
		if ro, ok := j.hist.latest(); ok {
			return ro, ro.Err, false
		}
		if j.closed.Load() {
			return RoundOutcome{}, ErrJobClosed, false
		}
		return RoundOutcome{}, nil, true
	})
}

// WaitOutcome blocks until the round completes, the job closes, or ctx
// expires.
func (j *Job) WaitOutcome(ctx context.Context, round int) (RoundOutcome, error) {
	return j.wait(ctx, func() (RoundOutcome, error, bool) { return j.outcomeLocked(round) })
}

// wait is the one wait loop behind the blocking reads: it evaluates resolve
// under j.mu and returns its answer unless it reports pending, in which case
// it sleeps until the job's next state change (or ctx) and asks again.
func (j *Job) wait(ctx context.Context, resolve func() (ro RoundOutcome, err error, pending bool)) (RoundOutcome, error) {
	for {
		j.mu.Lock()
		ro, err, pending := resolve()
		if !pending {
			j.mu.Unlock()
			return ro, err
		}
		ch := j.waitChLocked()
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return RoundOutcome{}, ctx.Err()
		case <-ch:
		}
	}
}

// since is the event stream's cursor read. Like wait, it reads the history
// and arms the wake channel under one lock: it returns the retained rounds
// numbered above *cursor, moves the cursor to the latest completed round
// (clamping one that pointed past it), and reports the collecting round,
// whether the job is closed and, while it is open, the channel its next
// state change closes. Rounds evicted before the cursor reached them are
// skipped.
func (j *Job) since(cursor *int) (page []RoundOutcome, cur int, closed bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	page, _ = j.hist.after(*cursor, 0)
	*cursor = j.hist.last()
	if closed = j.closed.Load(); !closed {
		wake = j.waitChLocked()
	}
	return page, j.round, closed, wake
}

// Strategy returns the job's solved equilibrium strategy (Theorem 1),
// solving it on first use. The solve runs once per job lifetime; its result
// (or error) is cached. Jobs without an Equilibrium spec report
// ErrNoStrategy.
func (j *Job) Strategy() (*auction.Strategy, error) {
	if j.strategyCfg == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoStrategy, j.id)
	}
	j.strategyOnce.Do(func() {
		j.strategy, j.strategyErr = auction.SolveEquilibrium(*j.strategyCfg)
	})
	return j.strategy, j.strategyErr
}

// restoreRound reinstates one persisted round during log replay. Replay is
// single-threaded and happens before the exchange is reachable, so no locks
// are taken (finishReplay aligns the intake shards afterwards). The entry
// is the kind a live close makes: ro owns its memory (the decoded record's)
// and rec is the round's record object as read from disk, kept so the next
// snapshot splices it like a live round's. What replay evicts is left to
// the garbage collector; only the close path feeds freeRecs.
func (j *Job) restoreRound(ro RoundOutcome, rec []byte) {
	j.hist.push(historyEntry{ro, rec}, j.spec.KeepOutcomes)
	j.round = ro.Round + 1
}

// newJob wires a job into the exchange; callers hold no locks.
func newJob(ex *Exchange, id string, spec JobSpec) (*Job, error) {
	src := newCountingSource(spec.Seed)
	auct, err := auction.NewAuctioneer(spec.Auction, rand.New(src))
	if err != nil {
		return nil, err
	}
	spec.Auction = auct.Config() // normalized (defaults applied)
	var eqCfg *auction.EquilibriumConfig
	if spec.Equilibrium != nil {
		// Fail fast on an unsolvable game description and keep the validated
		// configuration; the (expensive) solve itself stays lazy until the
		// first strategy request, and always runs on exactly this config.
		cfg, err := spec.Equilibrium.Config(spec.Auction.Rule, spec.Auction.K)
		if err != nil {
			return nil, fmt.Errorf("exchange: equilibrium spec for job %s: %w", id, err)
		}
		eqCfg = &cfg
	}
	scoreMax := math.MaxFloat64 / (2 * float64(spec.Auction.K))
	ctx, cancel := context.WithCancel(ex.ctx)
	return &Job{
		id:          id,
		spec:        spec,
		ex:          ex,
		ctx:         ctx,
		cancel:      cancel,
		intake:      newIntake(intakeStripes(runtime.GOMAXPROCS(0))),
		admit:       ex.adm.NewJobBucket(),
		round:       1,
		auct:        auct,
		src:         src,
		strategyCfg: eqCfg,
		scoreMax:    scoreMax,
		valueBox:    valueBoxFor(spec.Auction.Rule, scoreMax/2),
	}, nil
}
