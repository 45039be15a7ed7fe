package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fmore/internal/auction"
	"fmore/internal/exchange"
)

const (
	megaBidders = 16384
	megaK       = 64
	megaPool    = 4  // distinct slates the job cycles through
	megaTimed   = 64 // every megaTimed-th submit of a worker is timed
	megaJob     = "mega"
)

// megaRule is the 3-dimensional Cobb-Douglas rule of the large slate.
func megaRule() auction.ScoringRule {
	r, err := auction.NewCobbDouglas(2, 0.5, 0.3, 0.2)
	if err != nil {
		panic(err) // constant, valid coefficients
	}
	return r
}

// megaInst is the mega_round set-up: one in-memory job whose whole bidder
// population is registered.
type megaInst struct {
	e      *env
	em     *embedded
	n      int
	slates [][]auction.Bid
	round  int
	intake []float64 // wall time of each round's intake phase, ms
}

func megaN(e *env) int {
	if e.small {
		return 1024
	}
	return megaBidders
}

func setupMega(e *env) (instance, error) {
	em, err := openEmbedded("", exchange.Options{}, true)
	if err != nil {
		return nil, err
	}
	in := &megaInst{e: e, em: em, n: megaN(e)}
	for id := 0; id < in.n; id++ {
		em.ex.RegisterNode(id, "")
	}
	seed := jobSeed(e.seed, 0)
	if _, err := em.ex.CreateJob(exchange.JobSpec{
		ID:      megaJob,
		Auction: auction.Config{Rule: megaRule(), K: megaK, Payment: auction.SecondPrice},
		Seed:    seed,
	}); err != nil {
		em.close() //nolint:errcheck // reporting the set-up failure
		return nil, err
	}
	in.slates = genSlates(e.seed, 0, megaPool, in.n, 3, in.n)

	// The first round doubles as a correctness check: the exchange must pick
	// what the bare selection core picks on the same slate and seed.
	recs := in.recorders(time.Now(), time.Minute, nil)
	first, err := in.driveRound(recs)
	if err == nil {
		err = sameAsSelect(first, in.slates[0], seed)
	}
	for r := 1; err == nil && r < megaPool; r++ {
		_, err = in.driveRound(recs)
	}
	if err != nil {
		em.close() //nolint:errcheck // reporting the set-up failure
		return nil, fmt.Errorf("mega warm-up: %w", err)
	}
	return in, nil
}

// sameAsSelect requires the exchange's first outcome to equal
// auction.Select on the slate (already in ascending node order) with the
// job's seed.
func sameAsSelect(got auction.Outcome, slate []auction.Bid, seed int64) error {
	want, err := auction.Select(auction.SelectionRequest{
		Rule: megaRule(), Bids: slate, K: megaK, Payment: auction.SecondPrice,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if len(got.Winners) != len(want.Winners) {
		return fmt.Errorf("exchange picked %d winners, auction.Select %d", len(got.Winners), len(want.Winners))
	}
	for i, w := range want.Winners {
		g := got.Winners[i]
		if g.Bid.NodeID != w.Bid.NodeID || g.Payment != w.Payment || g.Score != w.Score {
			return fmt.Errorf("winner %d: exchange (node %d, pay %v), auction.Select (node %d, pay %v)",
				i, g.Bid.NodeID, g.Payment, w.Bid.NodeID, w.Payment)
		}
	}
	if math.Float64bits(got.AggregatorProfit) != math.Float64bits(want.AggregatorProfit) {
		return fmt.Errorf("aggregator profit %v, auction.Select %v", got.AggregatorProfit, want.AggregatorProfit)
	}
	return nil
}

func (in *megaInst) recorders(start time.Time, window time.Duration, tr *tracer) []*recorder {
	recs := make([]*recorder, in.e.c)
	for w := range recs {
		recs[w] = newRecorder(start, window, tr)
	}
	return recs
}

// driveRound runs one round: the C workers submit disjoint node ranges of
// the slate into the one job at the same time, then the caller closes.
func (in *megaInst) driveRound(recs []*recorder) (auction.Outcome, error) {
	slate := in.slates[in.round%megaPool]
	in.round++
	c := len(recs)
	r0 := recs[0]
	roundStart := time.Now()
	rs := r0.span("round", 0, roundStart, roundStart, 0, 0)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := recs[w]
			part := slate[w*len(slate)/c : (w+1)*len(slate)/c]
			r.attempted += int64(len(part))
			accepted := int64(0)
			for i := range part {
				timed := i%megaTimed == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				_, err := in.em.ex.SubmitBid(megaJob, part[i])
				if timed {
					r.observe(opSubmit, t0, time.Now(), rs, int64(in.round)<<32|int64(part[i].NodeID))
				}
				if err != nil {
					r.fail(fmt.Errorf("bid from node %d: %w", part[i].NodeID, err))
					continue
				}
				accepted++
			}
			r.ops += int64(len(part))
			r.countBids(accepted, time.Now())
		}(w)
	}
	wg.Wait()
	t0 := time.Now()
	in.intake = append(in.intake, float64(t0.Sub(roundStart).Nanoseconds())/1e6)
	r0.attempted++
	ro, err := in.em.ex.CloseRound(megaJob)
	end := time.Now()
	r0.ops++
	if err == nil {
		err = checkAuctionOutcome(ro.NumBids, len(slate), megaK, ro.Outcome)
	}
	if err != nil {
		err = fmt.Errorf("close of the mega round: %w", err)
		r0.fail(err)
	} else {
		r0.observe(opClose, t0, end, rs, 0)
		r0.rounds++
	}
	r0.endSpan(rs, end)
	return ro.Outcome, err
}

// measure repeats the round for d.
func (in *megaInst) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	start := time.Now()
	deadline := start.Add(d)
	recs := in.recorders(start, d, tr)
	in.intake = in.intake[:0]
	cpu := startCPU(in.pids())
	for time.Now().Before(deadline) {
		in.driveRound(recs) //nolint:errcheck // counted on the recorder
	}
	elapsed := time.Since(start) // the last round ends past the deadline
	cpu.stop(m)
	m.load = merge(elapsed, recs)
	// What one of the C contending submitters waits per bid.
	m.extra["exchange.submit_contended_ns"] = median(in.intake) * 1e6 * float64(in.e.c) / float64(in.n)
	m.extra["exchange.close_large_ns"] = m.load.pct(opClose, 0.5) * 1e6
	return m, nil
}

func (in *megaInst) pids() []int { return []int{0} }

func (in *megaInst) close() error { return in.em.close() }

func megaStream(e *env) uint64 {
	h := newStreamHasher()
	for r, slate := range genSlates(e.seed, 0, megaPool, megaN(e), 3, megaN(e)) {
		for _, b := range slate {
			h.op(opSubmit, 0, b.NodeID, b.Qualities, b.Payment)
		}
		h.op(opClose, 0, r, nil, 0)
	}
	return h.h.Sum64()
}
