package exchange

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

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

func TestDuplicateBidRejected(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 0), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bid := auction.Bid{NodeID: 4, Qualities: []float64{0.5, 0.5}, Payment: 0.1}
	if _, err := ex.SubmitBid(job.ID(), bid); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitBid(job.ID(), bid); !errors.Is(err, ErrDuplicateBid) {
		t.Errorf("second bid: err = %v, want ErrDuplicateBid", err)
	}
	if snap := ex.Metrics(); snap.BidsRejected != 1 {
		t.Errorf("bids_rejected = %d, want 1", snap.BidsRejected)
	}
}

func TestRegistrationPolicyAndBlacklist(t *testing.T) {
	ex := New(Options{RequireRegistration: true})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{Auction: auction.Config{Rule: testRule(t, 0), K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bid := auction.Bid{NodeID: 9, Qualities: []float64{0.5, 0.5}, Payment: 0.1}
	if _, err := ex.SubmitBid(job.ID(), bid); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered bid: err = %v, want ErrNotRegistered", err)
	}
	ex.RegisterNode(9, "edge-9")
	if _, err := ex.SubmitBid(job.ID(), bid); err != nil {
		t.Errorf("registered bid rejected: %v", err)
	}
	if !ex.Registry().Blacklist(9) {
		t.Fatal("blacklist of registered node failed")
	}
	bid.NodeID = 9
	if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 9, Qualities: []float64{0.1, 0.1}, Payment: 0.1}); !errors.Is(err, ErrBlacklisted) {
		t.Errorf("blacklisted bid: err = %v, want ErrBlacklisted", err)
	}
}

func TestMaxRoundsClosesJob(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		Auction:   auction.Config{Rule: testRule(t, 1), K: 1},
		MaxRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		for _, b := range testBids(1, round, 4) {
			if _, err := ex.SubmitBid(job.ID(), b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.CloseRound(job.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if got := job.State(); got != "closed" {
		t.Errorf("state = %q, want closed", got)
	}
	if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 0, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); !errors.Is(err, ErrJobClosed) {
		t.Errorf("bid on maxed job: err = %v, want ErrJobClosed", err)
	}
	// Waiting on a round that will never come reports closure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := job.WaitOutcome(ctx, 3); !errors.Is(err, ErrJobClosed) {
		t.Errorf("wait on closed job: err = %v, want ErrJobClosed", err)
	}
}

func TestOutcomeEviction(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		Auction:      auction.Config{Rule: testRule(t, 2), K: 1},
		KeepOutcomes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		for _, b := range testBids(2, round, 3) {
			if _, err := ex.SubmitBid(job.ID(), b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.CloseRound(job.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := job.Outcome(1); !errors.Is(err, ErrOutcomeEvicted) {
		t.Errorf("round 1: err = %v, want ErrOutcomeEvicted", err)
	}
	for round := 3; round <= 4; round++ {
		if ro, err := job.Outcome(round); err != nil || ro.Round != round {
			t.Errorf("round %d: (%v, %v), want retained", round, ro.Round, err)
		}
	}
	if ro, ok := job.Latest(); !ok || ro.Round != 4 {
		t.Errorf("Latest() = (%v, %v), want round 4", ro.Round, ok)
	}
}

func TestCloseRoundBelowQuorum(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		Auction: auction.Config{Rule: testRule(t, 3), K: 1},
		MinBids: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CloseRound(job.ID()); !errors.Is(err, ErrBelowQuorum) {
		t.Fatalf("close below quorum: err = %v, want ErrBelowQuorum", err)
	}
	// The pending bid survives the failed close and counts toward the next
	// attempt.
	if n := job.PendingBids(); n != 1 {
		t.Errorf("pending bids after refused close = %d, want 1", n)
	}
	if r := job.Round(); r != 1 {
		t.Errorf("round advanced to %d on refused close, want 1", r)
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
