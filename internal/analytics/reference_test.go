package analytics

// The dense aggregator this package shipped before its memory followed
// activity, frozen as the reference the live one is pinned against (the way
// internal/auction/reference_test.go pins selection): every entity owns a
// full ring of Options.Buckets buckets, each with every counter and its own
// price histogram, allocated on first contact. Do not "improve" it — its
// value is that it stays what the /stats bodies were defined by.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

// refKind and refEvent are the event shape the tap delivered before it
// handed its sink whole rounds, frozen with the reference that reads them.
type refKind uint8

const (
	refBidAccepted refKind = 1 + iota
	refWinner
	refRoundClosed
)

type refEvent struct {
	Kind    refKind
	Job     string
	Round   int
	Node    int
	Price   float64
	Payment float64
	Score   float64
	NumBids int
	Winners int
	Latency time.Duration
	Profit  float64
	Failed  bool
}

// refExpand is the pump's old expansion of one round into its events: its
// bids in slate order, its winners, then its close.
func refExpand(r *exchange.TapRound) []refEvent {
	ro := &r.Outcome
	var events []refEvent
	for _, b := range r.Bids {
		events = append(events, refEvent{Kind: refBidAccepted, Job: ro.JobID, Round: ro.Round, Node: b.Node, Price: b.Price})
	}
	for i := range ro.Outcome.Winners {
		w := &ro.Outcome.Winners[i]
		events = append(events, refEvent{Kind: refWinner, Job: ro.JobID, Round: ro.Round,
			Node: w.Bid.NodeID, Price: w.Bid.Payment, Payment: w.Payment, Score: w.Score})
	}
	return append(events, refEvent{Kind: refRoundClosed, Job: ro.JobID, Round: ro.Round,
		NumBids: ro.NumBids, Winners: len(ro.Outcome.Winners), Payment: ro.Outcome.TotalPayment(),
		Profit: ro.Outcome.AggregatorProfit, Latency: ro.Latency, Failed: ro.Err != nil})
}

// refCounters is the shared accumulator shape behind both refBucket and
// lifetime totals.
type refCounters struct {
	rounds, failed int64
	bids, wins     int64
	payment        float64
	profit         float64
	latSumNs       int64
	latMaxNs       int64
	prices         []int64 // len(bounds)+1, nil for lifetime totals
}

func (c *refCounters) addTo(r *Rollup) {
	r.Rounds += c.rounds
	r.RoundsFailed += c.failed
	r.Bids += c.bids
	r.Wins += c.wins
	r.TotalPayment += c.payment
	r.AggregatorProfit += c.profit
}

// refBucket is one window slice, valid only while its epoch is current (lazy
// in-place reset instead of a ticker goroutine or reallocation).
type refBucket struct {
	epoch int64 // bucketDur index; 0 = never used (epochs start at 1)
	refCounters
}

// refSeries is one entity's (job's or node's) rollup state.
type refSeries struct {
	life    refCounters
	buckets []refBucket
	lastBid time.Time
	lastWin time.Time
}

// refAggregator consumes the tap's events, as the tap delivered them before
// it handed its sink whole rounds (refExpand), and answers stats queries.
type refAggregator struct {
	window    time.Duration
	bucketDur time.Duration
	nb        int
	bounds    []float64
	now       func() time.Time

	mu      sync.Mutex
	jobs    map[string]*refSeries
	nodes   map[int]*refSeries
	dropped uint64
}

// newRef builds the reference with New's defaults.
func newRef(opts Options) *refAggregator {
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
	return &refAggregator{
		window:    opts.Window,
		bucketDur: bucketDur,
		nb:        opts.Buckets,
		bounds:    opts.PriceBounds,
		now:       opts.Now,
		jobs:      make(map[string]*refSeries),
		nodes:     make(map[int]*refSeries),
	}
}

// newSeries allocates one entity's state (once per entity lifetime; the
// steady state only mutates in place).
func (a *refAggregator) newSeries() *refSeries {
	s := &refSeries{buckets: make([]refBucket, a.nb)}
	backing := make([]int64, a.nb*(len(a.bounds)+1))
	for i := range s.buckets {
		s.buckets[i].prices = backing[i*(len(a.bounds)+1) : (i+1)*(len(a.bounds)+1)]
	}
	return s
}

// at returns the entity's current write refBucket, resetting it in place when
// its epoch expired.
func (a *refAggregator) at(s *refSeries, epoch int64) *refBucket {
	b := &s.buckets[epoch%int64(a.nb)]
	if b.epoch != epoch {
		prices := b.prices
		for i := range prices {
			prices[i] = 0
		}
		b.refCounters = refCounters{prices: prices}
		b.epoch = epoch
	}
	return b
}

func (a *refAggregator) jobSeries(id string) *refSeries {
	s := a.jobs[id]
	if s == nil {
		s = a.newSeries()
		a.jobs[id] = s
	}
	return s
}

func (a *refAggregator) nodeSeries(id int) *refSeries {
	s := a.nodes[id]
	if s == nil {
		s = a.newSeries()
		a.nodes[id] = s
	}
	return s
}

// priceBucket maps a bid price onto its histogram slot.
func (a *refAggregator) priceBucket(p float64) int {
	for i, bound := range a.bounds {
		if p <= bound {
			return i
		}
	}
	return len(a.bounds)
}

// ConsumeTap was the tap's Sink method. One batch costs one mutex
// acquisition and in-place counter updates; the only allocations are the
// first-contact refSeries of a new job or node.
func (a *refAggregator) ConsumeTap(events []refEvent, dropped uint64) {
	now := a.now()
	epoch := now.UnixNano()/int64(a.bucketDur) + 1 // +1: epoch 0 means "never"
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += dropped
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case refBidAccepted:
			js := a.jobSeries(ev.Job)
			jb := a.at(js, epoch)
			jb.bids++
			jb.prices[a.priceBucket(ev.Price)]++
			js.life.bids++

			ns := a.nodeSeries(ev.Node)
			nb := a.at(ns, epoch)
			nb.bids++
			nb.prices[a.priceBucket(ev.Price)]++
			ns.life.bids++
			ns.lastBid = now
		case refWinner:
			js := a.jobSeries(ev.Job)
			a.at(js, epoch).wins++
			js.life.wins++

			ns := a.nodeSeries(ev.Node)
			nb := a.at(ns, epoch)
			nb.wins++
			nb.payment += ev.Payment
			ns.life.wins++
			ns.life.payment += ev.Payment
			ns.lastWin = now
		case refRoundClosed:
			js := a.jobSeries(ev.Job)
			jb := a.at(js, epoch)
			lat := ev.Latency.Nanoseconds()
			jb.rounds++
			jb.payment += ev.Payment
			jb.profit += ev.Profit
			jb.latSumNs += lat
			if lat > jb.latMaxNs {
				jb.latMaxNs = lat
			}
			js.life.rounds++
			js.life.payment += ev.Payment
			js.life.profit += ev.Profit
			js.life.latSumNs += lat
			if lat > js.life.latMaxNs {
				js.life.latMaxNs = lat
			}
			if ev.Failed {
				jb.failed++
				js.life.failed++
			}
		}
	}
}

// windowRollup folds the live buckets (epoch within the window) into a
// rollup plus the windowed price histogram.
func (a *refAggregator) windowRollup(s *refSeries) (Rollup, PriceHistogram) {
	nowEpoch := a.now().UnixNano()/int64(a.bucketDur) + 1
	minEpoch := nowEpoch - int64(a.nb) + 1
	var r Rollup
	var latSum, latMax int64
	hist := PriceHistogram{
		Bounds: a.bounds,
		Counts: make([]int64, len(a.bounds)+1),
	}
	for i := range s.buckets {
		b := &s.buckets[i]
		if b.epoch < minEpoch || b.epoch > nowEpoch {
			continue
		}
		b.refCounters.addTo(&r)
		latSum += b.latSumNs
		if b.latMaxNs > latMax {
			latMax = b.latMaxNs
		}
		for k, c := range b.prices {
			hist.Counts[k] += c
		}
	}
	refFinishRollup(&r, latSum, latMax)
	return r, hist
}

// refLifetimeRollup folds the lifetime totals.
func refLifetimeRollup(s *refSeries) Rollup {
	var r Rollup
	s.life.addTo(&r)
	refFinishRollup(&r, s.life.latSumNs, s.life.latMaxNs)
	return r
}

func refFinishRollup(r *Rollup, latSumNs, latMaxNs int64) {
	if r.Bids > 0 {
		r.WinRate = float64(r.Wins) / float64(r.Bids)
	}
	if r.Rounds > 0 {
		r.AvgRoundLatencyMS = float64(latSumNs) / float64(r.Rounds) / 1e6
	}
	r.MaxRoundLatencyMS = float64(latMaxNs) / 1e6
}

// JobStats returns the job's rollups; ok is false when the aggregator has
// never seen the job.
func (a *refAggregator) JobStats(id string) (JobStats, bool) {
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
		Lifetime:       refLifetimeRollup(s),
		PriceHistogram: hist,
	}, true
}

// NodeStats returns the node's rollups; ok is false when the aggregator
// has never seen the node.
func (a *refAggregator) NodeStats(id int) (NodeStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.nodes[id]
	if !ok {
		return NodeStats{}, false
	}
	win, hist := a.windowRollup(s)
	st := NodeStats{
		Node:           id,
		WindowSec:      int64(a.window / time.Second),
		Window:         win,
		Lifetime:       refLifetimeRollup(s),
		PriceHistogram: hist,
	}
	if !s.lastBid.IsZero() {
		st.LastBidMS = s.lastBid.UnixMilli()
	}
	if !s.lastWin.IsZero() {
		st.LastWinMS = s.lastWin.UnixMilli()
	}
	return st, true
}

// NodeIDs lists every node the aggregator has seen (ascending).
func (a *refAggregator) NodeIDs() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]int, 0, len(a.nodes))
	for id := range a.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// refStream is one seeded stream of closed rounds under a hand-advanced
// clock, fed round by round to the live aggregator and, expanded into
// events, to the reference.
type refStream struct {
	rng   *rand.Rand
	clock *fakeClock
	jobs  []string
	nodes []int
	round int
}

func newRefStream(seed int64, clock *fakeClock) *refStream {
	rng := rand.New(rand.NewSource(seed))
	s := &refStream{rng: rng, clock: clock, jobs: []string{"a", "b", "job-with-a-long-name", "", "z9"}}
	for n := 0; n < 24; n++ { // a dense block, as a registry hands IDs out
		s.nodes = append(s.nodes, n)
	}
	for n := 0; n < 24; n++ { // sparse IDs, both signs
		s.nodes = append(s.nodes, int(rng.Int63())-math.MaxInt64/2)
	}
	s.nodes = append(s.nodes, -1, math.MinInt64, math.MaxInt64)
	return s
}

// prices straddle the default bounds and include what a hostile bidder can
// send; payments stay finite so the bodies stay encodable.
var refPrices = []float64{0, 0.01, 0.0100001, 0.07, 0.25, 0.9, 1, 3, 10, 11, 1e300, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}

// errPoisoned fails the stream's failed rounds.
var errPoisoned = errors.New("poisoned slate")

// next is the stream's next round: a few dozen bids, sometimes hundreds,
// from any of the stream's nodes at any of refPrices, and up to seven
// winners; every fifth round or so failed.
func (s *refStream) next() *exchange.TapRound {
	n := s.rng.Intn(40)
	if s.rng.Intn(8) == 0 {
		n = 200 + s.rng.Intn(200)
	}
	s.round++
	r := &exchange.TapRound{Outcome: exchange.RoundOutcome{
		JobID:   s.jobs[s.rng.Intn(len(s.jobs))],
		Round:   s.round,
		NumBids: n,
		Latency: time.Duration(s.rng.Int63n(int64(50 * time.Millisecond))),
	}}
	for range n {
		r.Bids = append(r.Bids, exchange.TapBid{Node: s.nodes[s.rng.Intn(len(s.nodes))], Price: refPrices[s.rng.Intn(len(refPrices))]})
	}
	o := &r.Outcome.Outcome
	for range s.rng.Intn(8) {
		o.Winners = append(o.Winners, auction.Winner{
			Bid:     auction.Bid{NodeID: s.nodes[s.rng.Intn(len(s.nodes))], Payment: s.rng.Float64()},
			Payment: s.rng.Float64() * 3,
			Score:   s.rng.NormFloat64(),
		})
	}
	o.AggregatorProfit = s.rng.NormFloat64() * 5
	if s.rng.Intn(5) == 0 {
		r.Outcome.Err = errPoisoned
	}
	return r
}

// step moves the clock: mostly inside a bucket, often across one or a few,
// sometimes past the whole window (the idle gap after which activity
// returns into buckets that all expired). It never moves it back: what a
// bucket that already left the window shows if the clock returns to it is
// the one thing the two differ in (the dense ring may still hold it, the
// live aggregator may have reused it) and neither answer is a contract.
func (s *refStream) step(window, bucket time.Duration) {
	switch k := s.rng.Intn(20); {
	case k < 8:
	case k < 12:
		s.clock.advance(time.Duration(s.rng.Int63n(int64(bucket))))
	case k < 16:
		s.clock.advance(bucket)
	case k < 19:
		s.clock.advance(time.Duration(1+s.rng.Intn(5)) * bucket)
	default:
		s.clock.advance(window + time.Duration(s.rng.Int63n(int64(2*window))))
	}
}

// TestAnalyticsMatchesDenseReference is the witness that allocating
// buckets on use, and taking whole rounds instead of their events, changed
// no /stats body: under one stream of rounds and one clock the sparse
// aggregator and the frozen dense one, fed the rounds' events, must marshal
// every JobStats, NodeStats and NodeIDs to the same bytes at every probe.
func TestAnalyticsMatchesDenseReference(t *testing.T) {
	configs := []Options{
		{},
		{Window: time.Minute, Buckets: 6},
		{Window: 10 * time.Second, Buckets: 1},
		{Window: time.Hour, Buckets: 7, PriceBounds: []float64{0.1, 1}},
		{Window: time.Second, Buckets: 4, PriceBounds: []float64{}},
	}
	for ci, opts := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("config%d/seed%d", ci, seed), func(t *testing.T) {
				clock := newFakeClock()
				opts.Now = clock.now
				got, want := New(opts), newRef(opts)
				s := newRefStream(seed*31+int64(ci), clock)
				for step := 0; step < 300; step++ {
					for range 1 + s.rng.Intn(3) {
						r := s.next()
						got.ConsumeRound(r)
						want.ConsumeTap(refExpand(r), 0)
					}
					s.step(got.window, got.bucketDur)
					if s.rng.Intn(4) == 0 {
						probeAgainstReference(t, step, got, want, s, 8)
					}
				}
				probeAgainstReference(t, 300, got, want, s, len(s.nodes))
			})
		}
	}
}

// probeAgainstReference compares every job, nodes of the stream's nodes
// picked at random, and the listings.
func probeAgainstReference(t *testing.T, step int, got *Aggregator, want *refAggregator, s *refStream, nodes int) {
	t.Helper()
	same := func(what string, g, w any, gok, wok bool) {
		t.Helper()
		gb, gerr := json.Marshal(g)
		wb, werr := json.Marshal(w)
		if gok != wok || string(gb) != string(wb) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("step %d, %s at %v:\n got  %s (ok=%v, err=%v)\n want %s (ok=%v, err=%v)",
				step, what, s.clock.now(), gb, gok, gerr, wb, wok, werr)
		}
	}
	for _, job := range append([]string{"ghost"}, s.jobs...) {
		g, gok := got.JobStats(job)
		w, wok := want.JobStats(job)
		same("job "+job, g, w, gok, wok)
	}
	candidates := append(slices.Clone(s.nodes), 424242) // 424242 never bids
	for _, at := range s.rng.Perm(len(candidates))[:nodes] {
		node := candidates[at]
		g, gok := got.NodeStats(node)
		w, wok := want.NodeStats(node)
		same(fmt.Sprint("node ", node), g, w, gok, wok)
	}
	same("NodeIDs", got.NodeIDs(), want.NodeIDs(), true, true)
}
