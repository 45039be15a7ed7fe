// Package analytics turns the exchange's firehose into queryable rollups:
// per-job and per-node win rates, payment totals, round latencies and
// fixed-bucket bid-price histograms, maintained over a sliding window next
// to lifetime totals. The aggregator is an exchange.Sink — attach it with
// Exchange.Firehose().Attach — and NewHandler exposes its rollups as
// GET /v1/jobs/{id}/stats and GET /v1/nodes/{id}/stats in front of the
// exchange's own HTTP handler.
//
// What a rollup counts, and when: the firehose taps closed rounds only —
// FMore's bids are sealed until the aggregator scores their round — so a
// bid is counted (its job's and its node's bids, the price histograms) when
// its round closes, in the window slice the aggregator saw the round in,
// together with that round's wins, payments and summary. A rollup therefore
// always holds whole rounds, wins and bids from the same rounds; a node's
// last_bid_ms is the time the aggregator saw its latest bid's round; the
// bids of a round that never closes are never counted; and nothing about an
// open round's bids is observable through the stats endpoints. A round the
// tap dropped whole (its queue was full) is missing whole; the exchange
// counts its events, in Firehose.Stats and as firehose_dropped on
// /v1/metrics and the Prometheus page.
//
// Memory follows activity: an entity (job or node) holds one epoch-stamped
// bucket — three scalars and its price histogram — per window slice it was
// actually seen in, so the aggregator costs entities × buckets touched in
// the window, not entities × Options.Buckets. A bucket is allocated on the
// entity's first round in a slice the entity has no expired bucket to spare
// for; one that left the window is reset and reused in place, so once an
// entity has as many buckets as it is ever live in at a time, aggregation
// allocates nothing, as the tap's own steady state does. The round fields
// (rounds, failures, profit, latency) exist only on jobs.
//
// A node's state lives by value in one append-only arena, in first-contact
// order, found through an open-addressed index of 4-byte arena positions
// (Fibonacci home slot, linear probe, at most half full, doubled by
// re-inserting the arena). A node costs its 80-byte series in the arena
// (plus the arena's spare capacity), 8 to 16 bytes of index, and its
// buckets; a lookup reads one index slot, usually, and the arena entry it
// names, and nodes first seen together, such as one round's slate, are
// neighbours there. Jobs are few and keyed by string: they stay in a map of
// pointers.
//
// Ingest takes one mutex — contention-free in practice, because a single
// pump goroutine is the only writer and readers are scrape-rate HTTP
// requests.
package analytics

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"fmore/internal/exchange"
	"fmore/pkg/api"
)

// Defaults for Options.
const (
	defaultWindow  = 10 * time.Minute
	defaultBuckets = 30
)

// defaultPriceBounds are the bid-price histogram's upper bounds. Auction
// payments in this codebase live on [0, ~1] in the paper's normalized
// units; the doubling tail absorbs custom cost scales.
var defaultPriceBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Options configures an Aggregator.
type Options struct {
	// Window is the sliding rollup horizon (default 10m).
	Window time.Duration
	// Buckets subdivides the window; finer buckets expire data in smaller
	// steps, and cost memory only for entities active in many of them
	// (default 30).
	Buckets int
	// PriceBounds overrides the bid-price histogram's upper bounds
	// (ascending; a final +Inf bucket is implicit).
	PriceBounds []float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// The stats endpoints' payloads are part of the /v1 contract and declared
// in pkg/api; the aggregator fills them under these names.
type (
	Rollup         = api.Rollup
	PriceHistogram = api.PriceHistogram
	JobStats       = api.JobStats
	NodeStats      = api.NodeStats
)

// tally is what every entity accumulates, per bucket and for life.
type tally struct {
	bids, wins int64
	payment    float64
}

// roundTally is the part only jobs accumulate (rounds close on jobs, not on
// nodes); a node's series and buckets carry a nil one.
type roundTally struct {
	rounds, failed int64
	profit         float64
	latSumNs       int64
	latMaxNs       int64
}

func (t *roundTally) closed(ro *exchange.RoundOutcome) {
	lat := ro.Latency.Nanoseconds()
	t.rounds++
	t.profit += ro.Outcome.AggregatorProfit
	t.latSumNs += lat
	t.latMaxNs = max(t.latMaxNs, lat)
	if ro.Err != nil {
		t.failed++
	}
}

// bucket is one window slice of one entity, valid while its epoch is within
// the window; afterwards it is spare (lazy in-place reset instead of a
// ticker goroutine or reallocation).
type bucket struct {
	epoch int64 // bucketDur index, starting at 1
	tally
	prices []int64     // bid-price histogram, len(bounds)+1
	rounds *roundTally // jobs only
}

// series is one entity's (job's or node's) rollup state. buckets holds only
// the slices the entity was seen in, in no order except that the bucket
// written last is first; it never outgrows Options.Buckets while the clock
// moves forward.
//
// A node's series lives in the aggregator's arena, so a *series of a node
// is valid only until the next first contact of a node, which may move the
// arena: use it at once and look it up again afterwards. A job's series is
// its own allocation and stays put.
type series struct {
	id        int // nodes only: the arena entry's key
	life      tally
	rounds    *roundTally // lifetime round totals; jobs only
	buckets   []bucket
	lastBidMS int64 // nodes only; 0 = never
	lastWinMS int64
}

// Aggregator consumes the firehose and answers stats queries. It
// implements exchange.Sink; attach it via Exchange.Firehose().Attach.
type Aggregator struct {
	window    time.Duration
	bucketDur time.Duration
	nb        int
	bounds    []float64
	now       func() time.Time

	mu      sync.Mutex
	jobs    map[string]*series
	nodes   []series // the node arena, in first-contact order
	nodeIdx []int32  // open-addressed index of nodes: 1 + arena index, 0 = empty
}

// minNodeSlots is the size of the first node index.
const minNodeSlots = 64

// New builds an aggregator. Zero Options give a 10-minute window over 30
// buckets and the default price bounds.
func New(opts Options) *Aggregator {
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.Buckets <= 0 {
		opts.Buckets = defaultBuckets
	}
	if opts.PriceBounds == nil {
		opts.PriceBounds = defaultPriceBounds
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	bucketDur := opts.Window / time.Duration(opts.Buckets)
	if bucketDur <= 0 {
		bucketDur = time.Second
	}
	return &Aggregator{
		window:    opts.Window,
		bucketDur: bucketDur,
		nb:        opts.Buckets,
		bounds:    opts.PriceBounds,
		now:       opts.Now,
		jobs:      make(map[string]*series),
		nodeIdx:   make([]int32, minNodeSlots),
	}
}

// epochOf is the window slice t falls in (+1: epochs start at 1).
func (a *Aggregator) epochOf(t time.Time) int64 {
	return t.UnixNano()/int64(a.bucketDur) + 1
}

// at returns the entity's bucket for epoch and leaves it first in the
// series, where the next event of the same slice finds it without a search.
// A slice the entity has no bucket for takes over a bucket that left the
// window, reset in place; only when none is spare does the series grow.
func (a *Aggregator) at(s *series, epoch int64) *bucket {
	if len(s.buckets) > 0 && s.buckets[0].epoch == epoch {
		return &s.buckets[0]
	}
	i, spare := 0, -1
	for ; i < len(s.buckets) && s.buckets[i].epoch != epoch; i++ {
		if s.buckets[i].epoch <= epoch-int64(a.nb) {
			spare = i
		}
	}
	switch {
	case i < len(s.buckets): // the clock stepped back into a slice it left
	case spare >= 0:
		i = spare
		b := &s.buckets[i]
		clear(b.prices)
		b.epoch, b.tally = epoch, tally{}
		if b.rounds != nil {
			*b.rounds = roundTally{}
		}
	default:
		b := bucket{epoch: epoch, prices: make([]int64, len(a.bounds)+1)}
		if s.rounds != nil {
			b.rounds = new(roundTally)
		}
		s.buckets = append(s.buckets, b)
	}
	s.buckets[0], s.buckets[i] = s.buckets[i], s.buckets[0]
	return &s.buckets[0]
}

func (a *Aggregator) jobSeries(id string) *series {
	s := a.jobs[id]
	if s == nil {
		s = &series{rounds: new(roundTally)}
		a.jobs[id] = s
	}
	return s
}

// nodeSeries returns the node's series, appending it to the arena on first
// contact (valid until the next first contact; see series).
func (a *Aggregator) nodeSeries(id int) *series {
	i := a.nodeSlot(id)
	if at := a.nodeIdx[i]; at != 0 {
		return &a.nodes[at-1]
	}
	if 2*(len(a.nodes)+1) > len(a.nodeIdx) {
		a.growNodeIdx()
		i = a.nodeSlot(id)
	}
	a.nodes = append(a.nodes, series{id: id})
	a.nodeIdx[i] = int32(len(a.nodes))
	return &a.nodes[len(a.nodes)-1]
}

// nodeSlot probes the node index linearly from id's home slot (the top
// bits of its 64-bit Fibonacci product, as the exchange's registry and
// intake place nodes). It returns the slot that holds id, or the empty slot
// that ended the probe: nodes are never removed, so that slot proves id
// absent.
func (a *Aggregator) nodeSlot(id int) int {
	mask := len(a.nodeIdx) - 1
	i := nodeHome(id, len(a.nodeIdx))
	for at := a.nodeIdx[i]; at != 0 && a.nodes[at-1].id != id; at = a.nodeIdx[i] {
		i = (i + 1) & mask
	}
	return i
}

// nodeHome is id's first probe in a node index of size slots (a power of
// two).
func nodeHome(id, size int) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(size))))
}

// growNodeIdx doubles the node index and re-inserts the arena into it.
func (a *Aggregator) growNodeIdx() {
	a.nodeIdx = make([]int32, 2*len(a.nodeIdx))
	for k := range a.nodes {
		a.nodeIdx[a.nodeSlot(a.nodes[k].id)] = int32(k + 1)
	}
}

// priceBucket maps a bid price onto its histogram slot.
func (a *Aggregator) priceBucket(p float64) int {
	for i, bound := range a.bounds {
		if p <= bound {
			return i
		}
	}
	return len(a.bounds)
}

// ConsumeRound implements exchange.Sink. A round costs one mutex
// acquisition, one job lookup, one node index probe per bid or win, and
// in-place counter updates. The only allocations are a new job's series, the
// node arena growing (as append grows a slice) and its index doubling on a
// new node's first contact, and a bucket for a window slice the entity has
// none to spare for (see at).
func (a *Aggregator) ConsumeRound(r *exchange.TapRound) {
	now := a.now()
	epoch := a.epochOf(now)
	var nowMS int64
	if !now.IsZero() {
		nowMS = now.UnixMilli()
	}
	ro := &r.Outcome
	winners := ro.Outcome.Winners
	payment := ro.Outcome.TotalPayment()
	a.mu.Lock()
	defer a.mu.Unlock()
	js := a.jobSeries(ro.JobID)
	jb := a.at(js, epoch)
	jb.bids += int64(len(r.Bids))
	js.life.bids += int64(len(r.Bids))
	for _, b := range r.Bids {
		price := a.priceBucket(b.Price)
		jb.prices[price]++

		ns := a.nodeSeries(b.Node)
		nb := a.at(ns, epoch)
		nb.bids++
		nb.prices[price]++
		ns.life.bids++
		ns.lastBidMS = nowMS
	}
	jb.wins += int64(len(winners))
	js.life.wins += int64(len(winners))
	for i := range winners {
		w := &winners[i]
		ns := a.nodeSeries(w.Bid.NodeID)
		nb := a.at(ns, epoch)
		nb.wins++
		nb.payment += w.Payment
		ns.life.wins++
		ns.life.payment += w.Payment
		ns.lastWinMS = nowMS
	}
	jb.payment += payment
	jb.rounds.closed(ro)
	js.life.payment += payment
	js.rounds.closed(ro)
}

// windowRollup folds the live buckets (epoch within the window) into a
// rollup plus the windowed price histogram.
func (a *Aggregator) windowRollup(s *series) (Rollup, PriceHistogram) {
	nb := int64(a.nb)
	minEpoch := a.epochOf(a.now()) - nb + 1
	var t tally
	var rt roundTally
	hist := PriceHistogram{
		Bounds: a.bounds,
		Counts: make([]int64, len(a.bounds)+1),
	}
	// Fold in ascending epoch mod Buckets — the slot order of a dense ring
	// of Buckets slots: float sums depend on the order, and the stats bodies
	// are pinned byte for byte against such a ring (reference_test.go).
	for slot := int64(0); slot < nb; slot++ {
		epoch := minEpoch + ((slot-minEpoch)%nb+nb)%nb // the window's one epoch in this slot
		for i := range s.buckets {
			b := &s.buckets[i]
			if b.epoch != epoch {
				continue
			}
			t.bids += b.bids
			t.wins += b.wins
			t.payment += b.payment
			if r := b.rounds; r != nil {
				rt.rounds += r.rounds
				rt.failed += r.failed
				rt.profit += r.profit
				rt.latSumNs += r.latSumNs
				rt.latMaxNs = max(rt.latMaxNs, r.latMaxNs)
			}
			for k, c := range b.prices {
				hist.Counts[k] += c
			}
		}
	}
	return rollup(t, &rt), hist
}

// rollup renders totals; rt is nil for a node.
func rollup(t tally, rt *roundTally) Rollup {
	r := Rollup{Bids: t.bids, Wins: t.wins, TotalPayment: t.payment}
	if r.Bids > 0 {
		r.WinRate = float64(r.Wins) / float64(r.Bids)
	}
	if rt == nil {
		return r
	}
	r.Rounds, r.RoundsFailed, r.AggregatorProfit = rt.rounds, rt.failed, rt.profit
	if r.Rounds > 0 {
		r.AvgRoundLatencyMS = float64(rt.latSumNs) / float64(r.Rounds) / 1e6
	}
	r.MaxRoundLatencyMS = float64(rt.latMaxNs) / 1e6
	return r
}

// JobStats returns the job's rollups; ok is false when the aggregator has
// never seen the job.
func (a *Aggregator) JobStats(id string) (JobStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.jobs[id]
	if !ok {
		return JobStats{}, false
	}
	win, hist := a.windowRollup(s)
	return JobStats{
		Job:            id,
		WindowSec:      int64(a.window / time.Second),
		Window:         win,
		Lifetime:       rollup(s.life, s.rounds),
		PriceHistogram: hist,
	}, true
}

// NodeStats returns the node's rollups; ok is false when the aggregator
// has never seen the node.
func (a *Aggregator) NodeStats(id int) (NodeStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	at := a.nodeIdx[a.nodeSlot(id)]
	if at == 0 {
		return NodeStats{}, false
	}
	s := &a.nodes[at-1]
	win, hist := a.windowRollup(s)
	return NodeStats{
		Node:           id,
		WindowSec:      int64(a.window / time.Second),
		Window:         win,
		Lifetime:       rollup(s.life, s.rounds),
		PriceHistogram: hist,
		LastBidMS:      s.lastBidMS,
		LastWinMS:      s.lastWinMS,
	}, true
}

// NodeIDs lists every node the aggregator has seen (ascending).
func (a *Aggregator) NodeIDs() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]int, len(a.nodes))
	for k := range a.nodes {
		ids[k] = a.nodes[k].id
	}
	slices.Sort(ids)
	return ids
}
