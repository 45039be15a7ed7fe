package exchange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"fmore/internal/admission"
	"fmore/internal/auction"
)

// testRule builds an additive rule whose weights depend on the job index so
// every job has a distinct auction.
func testRule(t testing.TB, jobIdx int) auction.ScoringRule {
	t.Helper()
	w := 0.3 + 0.05*float64(jobIdx%8)
	rule, err := auction.NewAdditive(w, 1-w)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// testBids generates a deterministic bid set for (job, round): every bidder
// derives its qualities and payment from a seeded rng so reference runs can
// regenerate the exact same pool.
func testBids(jobIdx, round, bidders int) []auction.Bid {
	rng := rand.New(rand.NewSource(int64(1000*jobIdx + round)))
	bids := make([]auction.Bid, bidders)
	for i := range bids {
		bids[i] = auction.Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   0.05 + 0.2*rng.Float64(),
		}
	}
	return bids
}

// TestExchangeConcurrentJobsDeterministic is the subsystem's core contract
// under -race: 8 jobs × 32 bidders submit concurrently through 3 full
// rounds each, and every job's outcome must match a reference single-job
// auctioneer run bit-for-bit (per-job isolation + seed determinism,
// regardless of arrival order).
func TestExchangeConcurrentJobsDeterministic(t *testing.T) {
	concurrentJobsDeterministic(t, 8, 32, 3)
}

// TestExchangeLargeSlateDeterministic repeats the contract on slates above
// radixMinSlate, where the canonical order comes from the radix sort.
func TestExchangeLargeSlateDeterministic(t *testing.T) {
	concurrentJobsDeterministic(t, 2, radixMinSlate+radixMinSlate/4, 2)
}

func concurrentJobsDeterministic(t *testing.T, jobs, bidders, rounds int) {
	ex := New(Options{})
	defer ex.Close()

	jobIDs := make([]string, jobs)
	for j := 0; j < jobs; j++ {
		job, err := ex.CreateJob(JobSpec{
			ID:      fmt.Sprintf("fl-task-%d", j),
			Auction: auction.Config{Rule: testRule(t, j), K: 3 + j%4},
			Seed:    int64(100 + j),
		})
		if err != nil {
			t.Fatal(err)
		}
		jobIDs[j] = job.ID()
	}

	got := make([][]RoundOutcome, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for round := 1; round <= rounds; round++ {
				bids := testBids(j, round, bidders)
				// Shuffle submission order and fan out over goroutines so
				// arrival order is genuinely nondeterministic.
				var bw sync.WaitGroup
				for _, b := range bids {
					bw.Add(1)
					go func(b auction.Bid) {
						defer bw.Done()
						if _, err := ex.SubmitBid(jobIDs[j], b); err != nil {
							t.Errorf("job %d round %d: submit: %v", j, round, err)
						}
					}(b)
				}
				bw.Wait()
				ro, err := ex.CloseRound(jobIDs[j])
				if err != nil {
					t.Errorf("job %d round %d: close: %v", j, round, err)
					return
				}
				got[j] = append(got[j], ro)
			}
		}(j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Reference: a private auctioneer per job, fed the same bid sets in the
	// exchange's canonical (ascending node ID) order.
	for j := 0; j < jobs; j++ {
		ref, err := auction.NewAuctioneer(
			auction.Config{Rule: testRule(t, j), K: 3 + j%4},
			rand.New(rand.NewSource(int64(100+j))),
		)
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= rounds; round++ {
			bids := testBids(j, round, bidders)
			sort.Slice(bids, func(a, b int) bool { return bids[a].NodeID < bids[b].NodeID })
			want, err := ref.Run(bids)
			if err != nil {
				t.Fatal(err)
			}
			ro := got[j][round-1]
			if ro.Round != round || ro.JobID != jobIDs[j] {
				t.Errorf("job %d: outcome labeled (%s, round %d), want (%s, %d)",
					j, ro.JobID, ro.Round, jobIDs[j], round)
			}
			if ro.NumBids != bidders {
				t.Errorf("job %d round %d: scored %d bids, want %d", j, round, ro.NumBids, bidders)
			}
			if !reflect.DeepEqual(ro.Outcome, want) {
				t.Errorf("job %d round %d: exchange outcome diverges from reference auctioneer", j, round)
			}
		}
	}

	snap := ex.Metrics()
	if want := int64(jobs * rounds); snap.RoundsTotal != want {
		t.Errorf("rounds_total = %d, want %d", snap.RoundsTotal, want)
	}
	if want := int64(jobs * rounds * bidders); snap.BidsAccepted != want {
		t.Errorf("bids_accepted = %d, want %d", snap.BidsAccepted, want)
	}
	if ex.Registry().Len() != bidders {
		t.Errorf("registry has %d nodes, want %d (IDs shared across jobs)", ex.Registry().Len(), bidders)
	}
}

func TestJobTimerWindowClosesRounds(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		Auction:   auction.Config{Rule: testRule(t, 0), K: 2},
		Seed:      7,
		BidWindow: 20 * time.Millisecond,
		// Quorum of 6: windows that expire mid-submission are idle ticks, so
		// the assertion below cannot race the timer.
		MinBids: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBids(0, 1, 6) {
		if _, err := ex.SubmitBid(job.ID(), b); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ro, err := job.WaitOutcome(ctx, 1)
	if err != nil {
		t.Fatalf("window never closed round 1: %v", err)
	}
	if ro.NumBids != 6 || len(ro.Outcome.Winners) != 2 {
		t.Errorf("round 1: %d bids, %d winners; want 6 and 2", ro.NumBids, len(ro.Outcome.Winners))
	}
	// Empty windows are idle ticks: the round must not advance without a
	// quorum of bids.
	time.Sleep(60 * time.Millisecond)
	if r := job.Round(); r != 2 {
		t.Errorf("round advanced to %d during idle windows, want 2", r)
	}
}

// TestNextWindowDeadline pins the anchored bid-window schedule: each
// deadline is the previous one plus the window (not "now" plus the window,
// which would stretch the effective period by the scoring latency), and an
// overrun skips to the next grid point instead of firing a catch-up burst.
func TestNextWindowDeadline(t *testing.T) {
	const w = 100 * time.Millisecond
	base := time.Unix(1000, 0)
	cases := []struct {
		name      string
		now, want time.Duration // offsets from base (= the previous deadline)
	}{
		{"fast close stays on grid", 5 * time.Millisecond, w},
		{"slow close within the window stays on grid", 60 * time.Millisecond, w},
		{"close landing exactly on the next deadline skips it", w, 2 * w},
		{"overrun of 2.5 windows skips to the next future grid point", 250 * time.Millisecond, 3 * w},
		{"overrun landing on a grid point moves strictly past it", 2 * w, 3 * w},
	}
	for _, tc := range cases {
		got := nextWindowDeadline(base, base.Add(tc.now), w)
		if want := base.Add(tc.want); !got.Equal(want) {
			t.Errorf("%s: next = base+%v, want base+%v", tc.name, got.Sub(base), tc.want)
		}
	}
}

// TestSubmitCloseMatchesPrivateAuctioneer is the shared-engine invariant:
// SubmitBid×N + CloseRound on a seeded job yields exactly what a private
// auction.Auctioneer with the same config and seed returns from Run — the
// exchange service and the TCP harness's aggregator run one selection core.
func TestSubmitCloseMatchesPrivateAuctioneer(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	cfg := auction.Config{Rule: testRule(t, 4), K: 2}
	job, err := ex.CreateJob(JobSpec{Auction: cfg, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := auction.NewAuctioneer(cfg, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		bids := testBids(4, round, 10)
		for _, b := range bids {
			if _, err := ex.SubmitBid(job.ID(), b); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ex.CloseRound(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(bids) // already in ascending NodeID order
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outcome, want) {
			t.Errorf("round %d: exchange outcome diverges from private auctioneer", round)
		}
	}
	if _, err := ex.CloseRound(job.ID()); !errors.Is(err, ErrBelowQuorum) {
		t.Errorf("zero-bid close: err = %v, want ErrBelowQuorum", err)
	}
}

func TestExchangeCloseRejectsWork(t *testing.T) {
	ex := New(Options{})
	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 5), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ex.Close()
	ex.Close() // idempotent
	if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 0, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); !errors.Is(err, ErrJobClosed) {
		t.Errorf("bid after Close: err = %v, want ErrJobClosed", err)
	}
	if _, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 5), K: 1}}); !errors.Is(err, ErrExchangeClosed) {
		t.Errorf("CreateJob after Close: err = %v, want ErrExchangeClosed", err)
	}
}

// TestSubmitCloseAllocations pins the bid and close paths' allocation
// figures on warm state: a registered node's SubmitBid allocates nothing —
// the finite-score check included — with or without an admission
// controller installed, and a CloseRound allocates the three blocks of the
// one owning outcome the job's history keeps.
func TestSubmitCloseAllocations(t *testing.T) {
	const nodes, k = 256, 8
	bids := testBids(0, 1, nodes)
	measure := func(t *testing.T, opts Options) (submit, closeRound float64) {
		ex := New(opts)
		defer ex.Close() //nolint:errcheck // test teardown
		job, err := ex.CreateJob(JobSpec{ID: "allocs", Auction: auction.Config{Rule: testRule(t, 0), K: k}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		submitNext := func() {
			if _, err := ex.SubmitBid("allocs", bids[next%nodes]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for _, b := range bids {
			ex.RegisterNode(b.NodeID, "")
		}
		// Warm: every node's admission bucket minted, the intake's tables
		// and the close's scratch at size, the outcome history full.
		for r := 0; r < 130; r++ {
			for range bids {
				submitNext()
			}
			if _, err := job.CloseRound(); err != nil {
				t.Fatal(err)
			}
		}
		submit = testing.AllocsPerRun(nodes-1, submitNext)
		if _, err := job.CloseRound(); err != nil {
			t.Fatal(err)
		}
		closeRound = testing.AllocsPerRun(50, func() {
			for range k {
				submitNext()
			}
			if _, err := job.CloseRound(); err != nil {
				t.Fatal(err)
			}
		})
		return submit, closeRound
	}
	submit, closeRound := measure(t, Options{})
	if submit != 0 {
		t.Errorf("SubmitBid: %v allocs, want 0", submit)
	}
	if closeRound != 3 {
		t.Errorf("CloseRound: %v allocs, want 3", closeRound)
	}
	// A global ceiling nothing reaches: the admit runs on every bid and
	// sheds none.
	admitted, _ := measure(t, Options{Admission: admission.NewController(admission.Config{
		GlobalRate: 1e12, GlobalBurst: 1 << 30, MaxInflight: 1 << 20,
	})})
	if admitted != submit {
		t.Errorf("admitted SubmitBid: %v allocs, unadmitted %v", admitted, submit)
	}
}

// TestScoreInRangeMatchesScore holds submit's range check, box fast path
// included, to evaluating s(q) − p, on bids from ordinary to overflowing
// under each rule family at K = 1 and 64, and checks that the box covers
// ordinary bids (so they are not scored at submit). Then K+1 bids at each
// corner of the range — scores ±MaxFloat64/(2K), values from small to
// MaxFloat64/2 — select, under both payment rules, K winners whose scores,
// payments and profit are all finite.
func TestScoreInRangeMatchesScore(t *testing.T) {
	additive, _ := auction.NewAdditive(1, 1)
	leontief, _ := auction.NewLeontief(0.5, 2)
	cd11, _ := auction.NewCobbDouglas(1, 1, 1)
	fractional, _ := auction.NewCobbDouglas(2, 0.5, 0.3)
	normalized, _ := auction.NewNormalized(additive, []float64{-1e308, 0}, []float64{1e308, 1})
	ex := New(Options{})
	defer ex.Close() //nolint:errcheck // test teardown
	magnitudes := []float64{0, 1, 1e100, 1e154, 1e200, 1e298, 1e306, 1e307, math.MaxFloat64}
	for _, k := range []int{1, 64} {
		scoreMax := math.MaxFloat64 / float64(2*k)
		payments := []float64{0.1, scoreMax / 2, -scoreMax / 2, scoreMax, -math.Nextafter(scoreMax, math.Inf(1)), math.MaxFloat64, -math.MaxFloat64}
		for i, rule := range []auction.ScoringRule{additive, leontief, cd11, fractional, normalized} {
			job, err := ex.CreateJob(JobSpec{ID: fmt.Sprint("range-", k, "-", i), Auction: auction.Config{Rule: rule, K: k}})
			if err != nil {
				t.Fatal(err)
			}
			if job.valueBox < 1e150 {
				t.Errorf("%s K=%d: box bound %v leaves ordinary bids to be scored", rule.Name(), k, job.valueBox)
			}
			for _, q0 := range magnitudes {
				for _, q1 := range magnitudes {
					for _, sign := range []float64{1, -1} {
						for _, p := range payments {
							b := auction.Bid{Qualities: []float64{sign * q0, q1}, Payment: p}
							s := rule.Value(b.Qualities) - p
							if want := math.Abs(s) <= scoreMax; job.scoreInRange(b) != want {
								t.Errorf("%s K=%d: scoreInRange(%v, p=%v) = %v, score %v", rule.Name(), k, b.Qualities, p, !want, s)
							}
						}
					}
				}
			}
		}
		// Additive [1,1] values v at q = (v/2, v/2), each paying v − score,
		// nudged toward v until the job accepts it.
		job, _ := ex.Job(fmt.Sprint("range-", k, "-0"))
		var slate []auction.Bid
		for _, v := range []float64{scoreMax / 2, -scoreMax / 2, math.MaxFloat64 / 2, -math.MaxFloat64 / 2} {
			for _, score := range []float64{scoreMax, -scoreMax} {
				for n := 0; n <= k; n++ {
					b := auction.Bid{NodeID: len(slate), Qualities: []float64{v / 2, v / 2}, Payment: v - score}
					for !job.scoreInRange(b) {
						b.Payment = math.Nextafter(b.Payment, v)
					}
					slate = append(slate, b)
				}
			}
		}
		for _, pay := range []auction.PaymentRule{auction.FirstPrice, auction.SecondPrice} {
			out, err := auction.Select(auction.SelectionRequest{Rule: additive, Bids: slate, K: k, Payment: pay}, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			figures := append([]float64{out.AggregatorProfit}, out.Scores...)
			for _, w := range out.Winners {
				figures = append(figures, w.Score, w.Payment)
			}
			for _, x := range figures {
				if math.IsInf(x, 0) || math.IsNaN(x) {
					t.Errorf("K=%d payment rule %v: the corner slate selects a non-finite figure (profit %v)", k, pay, out.AggregatorProfit)
					break
				}
			}
		}
	}
}
