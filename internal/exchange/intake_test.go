package exchange

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmore/internal/auction"
)

// TestIntakeDedupUnderConcurrency hammers one job with many goroutines all
// trying to submit for the SAME small node population: exactly one bid per
// node per round may be accepted, every other attempt must fail
// ErrDuplicateBid, across several rounds. This pins the striped intake's
// dedup exactly where the old single-mutex buffer enforced it.
func TestIntakeDedupUnderConcurrency(t *testing.T) {
	const (
		nodes      = 16
		submitters = 4 // goroutines racing per node
		rounds     = 5
	)
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		ID:      "dedup",
		Auction: auction.Config{Rule: testRule(t, 0), K: 4},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= rounds; round++ {
		var accepted, dup, other atomic64
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for id := 0; id < nodes; id++ {
					_, err := ex.SubmitBid(job.ID(), auction.Bid{
						NodeID:    id,
						Qualities: []float64{0.5, 0.5},
						Payment:   0.1,
					})
					switch {
					case err == nil:
						accepted.add(1)
					case errors.Is(err, ErrDuplicateBid):
						dup.add(1)
					default:
						other.add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := accepted.load(); got != nodes {
			t.Fatalf("round %d: %d accepted bids, want exactly %d", round, got, nodes)
		}
		if got := dup.load(); got != nodes*(submitters-1) {
			t.Fatalf("round %d: %d duplicate rejections, want %d", round, got, nodes*(submitters-1))
		}
		if got := other.load(); got != 0 {
			t.Fatalf("round %d: %d unexpected errors", round, got)
		}
		ro, err := ex.CloseRound(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if ro.NumBids != nodes {
			t.Fatalf("round %d scored %d bids, want %d", round, ro.NumBids, nodes)
		}
	}
}

// atomic64 is a tiny test counter (sync/atomic.Int64 spelled short).
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestIntakeRoundLabelingDuringClose pins the round-labeling contract under
// submit/close races: the round number submit returns is exactly the round
// the bid is scored in. K is set above the population so every accepted bid
// is a winner, making membership observable per round.
func TestIntakeRoundLabelingDuringClose(t *testing.T) {
	const (
		bidders = 24
		rounds  = 8
	)
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		ID:      "labeling",
		Auction: auction.Config{Rule: testRule(t, 1), K: bidders + 1},
		Seed:    2,
		MinBids: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every bidder keeps submitting (one bid per round per node — retry on
	// duplicate until the round advances) while the main goroutine closes
	// rounds concurrently. claimed[node][round] records what submit returned.
	var mu sync.Mutex
	claimed := make(map[int]map[int]bool)
	for id := 0; id < bidders; id++ {
		claimed[id] = make(map[int]bool)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < bidders; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				round, err := ex.SubmitBid(job.ID(), auction.Bid{
					NodeID:    id,
					Qualities: []float64{0.5, 0.5},
					Payment:   0.1,
				})
				if errors.Is(err, ErrDuplicateBid) {
					continue // this round already has our bid; wait for the close
				}
				if errors.Is(err, ErrJobClosed) {
					return
				}
				if err != nil {
					t.Errorf("node %d: %v", id, err)
					return
				}
				mu.Lock()
				if claimed[id][round] {
					mu.Unlock()
					t.Errorf("node %d accepted twice into round %d", id, round)
					return
				}
				claimed[id][round] = true
				mu.Unlock()
			}
		}(id)
	}

	outcomes := make([]RoundOutcome, 0, rounds)
	for len(outcomes) < rounds {
		ro, err := ex.CloseRound(job.ID())
		if errors.Is(err, ErrBelowQuorum) {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, ro)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Each closed round's winner set must be exactly the nodes whose submit
	// reported that round.
	mu.Lock()
	defer mu.Unlock()
	for _, ro := range outcomes {
		if ro.Err != nil {
			t.Fatalf("round %d failed: %v", ro.Round, ro.Err)
		}
		inRound := make(map[int]bool, ro.NumBids)
		for _, w := range ro.Outcome.Winners {
			inRound[w.Bid.NodeID] = true
		}
		if len(inRound) != ro.NumBids {
			t.Fatalf("round %d: %d winners for %d bids (K exceeds population, so they must match)",
				ro.Round, len(inRound), ro.NumBids)
		}
		for id := range inRound {
			if !claimed[id][ro.Round] {
				t.Errorf("round %d scored node %d, but its submit reported a different round", ro.Round, id)
			}
		}
		for id, perRound := range claimed {
			if perRound[ro.Round] && !inRound[id] {
				t.Errorf("node %d's submit reported round %d, but the round did not score it", id, ro.Round)
			}
		}
	}
}

// TestIntakeShardOverride pins the intake's sizing — intakeStripes gives
// four stripes per scheduler thread up to maxIntakeShards, and newIntake
// rounds a count up to a power of two — and that the dedup/labeling
// semantics hold at any count.
func TestIntakeShardOverride(t *testing.T) {
	for _, c := range []struct{ procs, want int }{
		{1, 4}, {2, 8}, {3, 16}, {4, 16}, {6, 32}, {8, 32}, {64, maxIntakeShards},
	} {
		if got := len(newIntake(intakeStripes(c.procs)).shards); got != c.want {
			t.Errorf("GOMAXPROCS %d: %d stripes, want %d", c.procs, got, c.want)
		}
	}
	for _, override := range []int{1, 3, 8, maxIntakeShards} {
		ex := New(Options{})
		job, err := ex.CreateJob(JobSpec{
			ID:      fmt.Sprintf("shards-%d", override),
			Auction: auction.Config{Rule: testRule(t, 0), K: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		job.intake = newIntake(override) // before the first bid: nothing reads it yet
		if got := len(job.intake.shards); got&(got-1) != 0 || got < override {
			t.Errorf("override %d: %d shards, want a power of two >= it", override, got)
		}
		for _, b := range testBids(0, 1, 8) {
			if _, err := ex.SubmitBid(job.ID(), b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 3, Qualities: []float64{0.1, 0.1}, Payment: 0.1}); !errors.Is(err, ErrDuplicateBid) {
			t.Errorf("override %d: duplicate accepted (err=%v)", override, err)
		}
		if ro, err := ex.CloseRound(job.ID()); err != nil || ro.NumBids != 8 {
			t.Errorf("override %d: close = (%d bids, %v), want 8", override, ro.NumBids, err)
		}
		ex.Close()
	}
}

// TestIntakeWindowDeadlineSemantics pins timer-mode behavior on the striped
// intake: windows close on their anchored schedule, bids landing during a
// close are scored in the next round, and a below-quorum window is an idle
// tick that keeps collecting (dedup retained across the tick).
func TestIntakeWindowDeadlineSemantics(t *testing.T) {
	ex := New(Options{})
	defer ex.Close()
	job, err := ex.CreateJob(JobSpec{
		ID:        "window",
		Auction:   auction.Config{Rule: testRule(t, 0), K: 2},
		Seed:      3,
		BidWindow: 20 * time.Millisecond,
		MinBids:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two bids: below quorum — the window must tick idle, keep them
	// buffered, and still refuse a duplicate.
	for id := 0; id < 2; id++ {
		if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: id, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // at least one idle tick
	if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: 1, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); !errors.Is(err, ErrDuplicateBid) {
		t.Fatalf("duplicate across an idle tick: err = %v, want ErrDuplicateBid", err)
	}
	if got := job.Round(); got != 1 {
		t.Fatalf("round advanced to %d on idle ticks", got)
	}
	if ex.Metrics().IdleTicks == 0 {
		t.Error("no idle ticks recorded for below-quorum windows")
	}
	// Reach quorum; the next window must close round 1 with exactly 4 bids.
	for id := 2; id < 4; id++ {
		if _, err := ex.SubmitBid(job.ID(), auction.Bid{NodeID: id, Qualities: []float64{0.5, 0.5}, Payment: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ro, err := job.WaitOutcome(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ro.NumBids != 4 {
		t.Fatalf("window closed with %d bids, want 4", ro.NumBids)
	}
}

// TestIntakeSeenTableSpread pins how the dedup table places nodes: from
// the top bits of the Fibonacci product, so ID families that differ only
// in their high bits or share a stride still land apart. Linear probing at
// a load of at most one half displaces an entry by well under one slot on
// average; a home slot taken from the low bits would put each of the
// three families with zero low bits into one run as long as the family.
func TestIntakeSeenTableSpread(t *testing.T) {
	const n = 2048
	for name, id := range map[string]func(i int) int{
		"dense":     func(i int) int { return i },
		"high bits": func(i int) int { return i << 32 },
		"stride":    func(i int) int { return i << 12 },
		"negative":  func(i int) int { return -i << 20 },
	} {
		in := newIntake(1)
		var closed atomic.Bool
		for i := 0; i < n; i++ {
			if _, err := in.submit(auction.Bid{NodeID: id(i)}, &closed, nil, nil); err != nil {
				t.Fatalf("%s: node %d: %v", name, id(i), err)
			}
		}
		sh := &in.shards[0]
		if 2*n > len(sh.seen) {
			t.Fatalf("%s: %d nodes in %d slots, load over one half", name, n, len(sh.seen))
		}
		displaced, mask := 0, len(sh.seen)-1
		for i, s := range sh.seen {
			if s.round == sh.round {
				displaced += (i - homeSlot(s.node, len(sh.seen))) & mask
			}
		}
		if mean := float64(displaced) / n; mean > 1.5 {
			t.Errorf("%s: mean displacement %.2f slots, want at most 1.5", name, mean)
		}
	}
}
