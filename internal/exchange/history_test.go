package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fmore/internal/auction"
)

// heldOutcome is one round obtained through one accessor, with the bytes it
// rendered to at that moment.
type heldOutcome struct {
	via  string
	ro   RoundOutcome
	want []byte
}

func renderOutcome(t testing.TB, ro RoundOutcome) []byte {
	t.Helper()
	b, err := json.Marshal(outcomeView(ro))
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestRetainedOutcomesNeverChange pins the ownership contract of a closed
// round: whatever hands an outcome out — either CloseRound, a read
// accessor, the event stream's cursor (its attach-time replay and the
// rounds it reads live for round_closed events) — the holder may
// keep reading it long after the round left the KeepOutcomes window, while
// the job goes on closing rounds. Readers render concurrently with the
// closes, so under -race a close that wrote into handed-out memory is
// reported even if the bytes happened to match.
func TestRetainedOutcomesNeverChange(t *testing.T) {
	const (
		keep  = 2
		jobID = "held"
	)
	spec := JobSpec{ID: jobID, Auction: auction.Config{Rule: testRule(t, 0), K: 3, Payment: auction.SecondPrice}, Seed: 5, KeepOutcomes: keep}
	// Each round has its own slate size, so a recycled buffer would be
	// rewritten with visibly different content.
	closeRound := func(ex *Exchange, round int, close func() (RoundOutcome, error)) (RoundOutcome, error) {
		for _, b := range testBids(0, round, 6+round%5) {
			if _, err := ex.SubmitBid(jobID, b); err != nil {
				return RoundOutcome{}, err
			}
		}
		return close()
	}

	open := map[string]func(t *testing.T) *Exchange{
		"memory": func(t *testing.T) *Exchange {
			ex := New(Options{})
			if _, err := ex.CreateJob(spec); err != nil {
				t.Fatal(err)
			}
			return ex
		},
		"durable": func(t *testing.T) *Exchange {
			ex, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.CreateJob(spec); err != nil {
				t.Fatal(err)
			}
			return ex
		},
		// Three rounds closed by a previous process: the window starts out
		// holding replayed rounds 2 and 3 and turns live round by round.
		"reopened": func(t *testing.T) *Exchange {
			dir := t.TempDir()
			ex, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.CreateJob(spec); err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= keep+1; round++ {
				if _, err := closeRound(ex, round, func() (RoundOutcome, error) { return ex.CloseRound(jobID) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := ex.Close(); err != nil {
				t.Fatal(err)
			}
			if ex, err = Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
			return ex
		},
	}
	for mode, openExchange := range open {
		t.Run(mode, func(t *testing.T) {
			ex := openExchange(t)
			defer ex.Close()
			job, ok := ex.Job(jobID)
			if !ok {
				t.Fatal("job missing")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			var held []heldOutcome
			hold := func(via string, ro RoundOutcome, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				held = append(held, heldOutcome{via, ro, renderOutcome(t, ro)})
			}
			holdPage := func(via string, page []RoundOutcome) {
				t.Helper()
				if len(page) != keep {
					t.Fatalf("%s: %d rounds, want the %d retained", via, len(page), keep)
				}
				for _, ro := range page {
					hold(via, ro, nil)
				}
			}
			first := job.Round() // 1, or keep+2 after the reopen
			if first > 1 {
				page, _ := job.OutcomesAfter(0, 0)
				holdPage("OutcomesAfter (replayed)", page)
				ro, err := job.Outcome(first - 1)
				hold("Outcome (replayed)", ro, err)
			}

			// The event stream's cursor, attached before the live rounds close:
			// each round it reads is what a round_closed event renders.
			cursor := first - 1
			if page, _, closed, _ := job.since(&cursor); len(page) != 0 || closed {
				t.Fatalf("since(%d) = %d rounds, closed %v", first-1, len(page), closed)
			}
			holdEvent := func(round int) {
				t.Helper()
				for {
					page, _, closed, wake := job.since(&cursor)
					for _, ro := range page {
						if ro.Round == round {
							hold("round_closed cursor read", ro, nil)
							return
						}
					}
					if closed {
						t.Fatalf("job closed before round %d", round)
					}
					select {
					case <-wake:
					case <-ctx.Done():
						t.Fatalf("no round_closed for round %d", round)
					}
				}
			}

			viaExchange := func() (RoundOutcome, error) { return ex.CloseRound(jobID) }
			ro, err := closeRound(ex, first, viaExchange)
			hold("Exchange.CloseRound", ro, err)
			holdEvent(first)
			ro, err = closeRound(ex, first+1, job.CloseRound)
			hold("Job.CloseRound", ro, err)
			holdEvent(first + 1)

			ro, err = job.Outcome(first)
			hold("Outcome", ro, err)
			ro, ok = job.Latest()
			if !ok {
				t.Fatal("Latest: nothing retained")
			}
			hold("Latest", ro, nil)
			ro, err = job.WaitOutcome(ctx, first)
			hold("WaitOutcome", ro, err)
			ro, err = job.WaitLatest(ctx)
			hold("WaitLatest", ro, err)
			page, _ := job.OutcomesAfter(0, 0)
			holdPage("OutcomesAfter", page)
			attach := 0
			replay, _, _, _ := job.since(&attach)
			holdPage("cursor replay", replay)

			// Readers render what is held, and whatever the job retains right
			// now, while the closes below push every held round out of the
			// window (and, were memory reused, its storage back into service).
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range held {
							if got := renderOutcome(t, held[i].ro); !bytes.Equal(got, held[i].want) {
								t.Errorf("%s round %d changed under a reader:\n got %s\nwant %s", held[i].via, held[i].ro.Round, got, held[i].want)
								return
							}
						}
						page, _ := job.OutcomesAfter(0, 0)
						for _, ro := range page {
							renderOutcome(t, ro)
						}
					}
				}()
			}
			for round := first + 2; round < first+2+3*keep+1 && err == nil; round++ {
				if round%2 == 0 {
					_, err = closeRound(ex, round, viaExchange)
				} else {
					_, err = closeRound(ex, round, job.CloseRound)
				}
			}
			close(stop)
			readers.Wait()
			if err != nil {
				t.Fatal(err)
			}

			if _, err := job.Outcome(first + 1); !errors.Is(err, ErrOutcomeEvicted) {
				t.Fatalf("round %d should have left the window, got %v", first+1, err)
			}
			for _, h := range held {
				if got := renderOutcome(t, h.ro); !bytes.Equal(got, h.want) {
					t.Errorf("%s round %d changed after eviction:\n got %s\nwant %s", h.via, h.ro.Round, got, h.want)
				}
			}
		})
	}
}

// TestHistoryWindow pins the window arithmetic in the one place it lives:
// contiguous indexing across eviction, page bounds, the entries a push
// keeps, and the restart on a numbering gap.
func TestHistoryWindow(t *testing.T) {
	var h history
	for round := 1; round <= 5; round++ {
		h.push(RoundOutcome{Round: round, NumBids: 10 * round}, 3)
		if oldest := max(1, round-2); h.entry(0).Round != oldest || h.entry(0).NumBids != 10*oldest {
			t.Fatalf("after push(%d) the oldest entry is %+v, want round %d", round, *h.entry(0), oldest)
		}
	}
	if h.evictedThrough() != 2 || h.count() != 3 {
		t.Fatalf("window = base %d, %d entries; want rounds 3..5", h.evictedThrough(), h.count())
	}
	for round, want := range map[int]struct {
		found   bool
		evicted bool
		invalid bool
	}{0: {invalid: true}, 2: {evicted: true}, 3: {found: true}, 5: {found: true}, 6: {}} {
		ro, found, err := h.at(round)
		if found != want.found || found && ro.Round != round ||
			errors.Is(err, ErrOutcomeEvicted) != want.evicted || (err != nil) != (want.evicted || want.invalid) {
			t.Errorf("at(%d) = (round %d, %v, %v)", round, ro.Round, found, err)
		}
	}
	if ro, ok := h.latest(); !ok || ro.Round != 5 {
		t.Errorf("latest = round %d, %v", ro.Round, ok)
	}
	for _, c := range []struct {
		after, limit int
		want         []int
		more         bool
	}{
		{0, 0, []int{3, 4, 5}, false},
		{-4, 2, []int{3, 4}, true},
		{3, 0, []int{4, 5}, false},
		{4, 1, []int{5}, false},
		{5, 0, nil, false},
		{99, 0, nil, false},
	} {
		page, more := h.after(c.after, c.limit)
		var got []int
		for _, ro := range page {
			got = append(got, ro.Round)
		}
		if !slices.Equal(got, c.want) || more != c.more {
			t.Errorf("after(%d, %d) = %v, %v; want %v, %v", c.after, c.limit, got, more, c.want, c.more)
		}
	}
	// A round that does not continue the numbering restarts the window.
	if h.push(RoundOutcome{Round: 9}, 3); h.evictedThrough() != 8 || h.count() != 1 {
		t.Fatalf("gap: base %d, %d entries", h.evictedThrough(), h.count())
	}
	if _, found, err := h.at(5); found || !errors.Is(err, ErrOutcomeEvicted) {
		t.Errorf("at(5) after the gap = %v, %v", found, err)
	}
}

// TestHistoryRingModel holds the ring to a plain slice under one seeded op
// stream per trial: a keep of 1–8, pushes that continue the numbering or
// jump ahead of it, and resets. After every op the two agree on
// evictedThrough, latest, every retained entry (each push is tagged, so an
// entry left from the wrong push shows), at over and around the window,
// and after at random cursors and limits.
func TestHistoryRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		keep := 1 + rng.Intn(8)
		var h history
		var base int
		var ref []RoundOutcome
		last := func() int { return base + len(ref) }
		pushes := 0
		for op := 0; op < 60; op++ {
			switch r := rng.Intn(20); {
			case r == 0:
				base = rng.Intn(50)
				ref = ref[:0]
				h.reset(base)
			default:
				round := last() + 1
				if r == 1 {
					round += 1 + rng.Intn(2*keep)
				}
				pushes++
				ro := RoundOutcome{Round: round, NumBids: pushes}
				if round != last()+1 {
					base, ref = round-1, ref[:0]
				}
				if len(ref) >= keep {
					ref, base = ref[1:], base+1
				}
				ref = append(ref, ro)
				h.push(ro, keep)
			}
			checkHistoryAgainst(t, &h, base, ref, keep, rng)
			if t.Failed() {
				t.Fatalf("trial %d (keep %d) op %d", trial, keep, op)
			}
		}
	}
}

func checkHistoryAgainst(t *testing.T, h *history, base int, ref []RoundOutcome, keep int, rng *rand.Rand) {
	t.Helper()
	if h.evictedThrough() != base || h.last() != base+len(ref) || h.count() != len(ref) {
		t.Errorf("window = base %d, last %d, %d entries; want %d, %d, %d", h.evictedThrough(), h.last(), h.count(), base, base+len(ref), len(ref))
		return
	}
	for i := range ref {
		if e := h.entry(i); e.Round != ref[i].Round || e.NumBids != ref[i].NumBids {
			t.Errorf("entry(%d) = round %d of push %d, want %d of push %d", i, e.Round, e.NumBids, ref[i].Round, ref[i].NumBids)
		}
	}
	ro, ok := h.latest()
	if ok != (len(ref) > 0) || ok && ro.Round != ref[len(ref)-1].Round {
		t.Errorf("latest = round %d, %v", ro.Round, ok)
	}
	for round := base - 2; round <= base+len(ref)+2; round++ {
		ro, found, err := h.at(round)
		retained := round > base && round <= base+len(ref)
		if found != retained || found && ro.Round != round ||
			errors.Is(err, ErrOutcomeEvicted) != (round >= 1 && round <= base) || (err != nil) != (round < 1 || round <= base) {
			t.Errorf("at(%d) = (round %d, %v, %v) with rounds %d..%d retained", round, ro.Round, found, err, base+1, base+len(ref))
		}
	}
	for range 4 {
		after, limit := base-2+rng.Intn(len(ref)+5), rng.Intn(keep+2)
		var want []int
		for _, e := range ref {
			if e.Round > after {
				want = append(want, e.Round)
			}
		}
		more := limit > 0 && len(want) > limit
		if more {
			want = want[:limit]
		}
		page, gotMore := h.after(after, limit)
		var got []int
		for _, ro := range page {
			got = append(got, ro.Round)
		}
		if !slices.Equal(got, want) || gotMore != more {
			t.Errorf("after(%d, %d) = %v, %v; want %v, %v", after, limit, got, gotMore, want, more)
		}
	}
}
