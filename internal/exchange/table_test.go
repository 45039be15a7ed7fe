package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fmore/internal/auction"
)

// churnSpec builds a minimal manual-close job spec for the COW-table tests.
func churnSpec(t *testing.T, id string, seed int64) JobSpec {
	t.Helper()
	return JobSpec{
		ID:      id,
		Auction: auction.Config{Rule: testRule(t, int(seed)), K: 2},
		Seed:    seed,
	}
}

// TestJobTableChurnUnderLoad is the COW job table's contract under -race:
// 64 submitters resolve jobs lock-free while one goroutine churns a job
// slot through create→remove cycles and two more scrape metrics and watch
// the published table directly. The race detector proves no torn reads;
// the inline assertions pin the semantic invariants — jobs_active never
// counts a half-published job (it is bounded by the jobs that exist at any
// instant), and the table's epoch only ever moves forward.
func TestJobTableChurnUnderLoad(t *testing.T) {
	const (
		submitters = 64
		churns     = 100
	)
	ex := New(Options{})
	defer ex.Close()

	// One stable job so submitters always have a live target; the "churn"
	// slot flickers in and out of the published table the whole time.
	if _, err := ex.CreateJob(churnSpec(t, "stable", 1)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Submitters hammer both slots. Errors are expected and uninteresting
	// here (unknown job while the churn slot is out, duplicate node within
	// a round, job closed mid-removal) — the test's subject is that the
	// lock-free resolve never observes a torn table, which the race
	// detector and the invariant goroutines below judge.
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := "stable"
			if i%2 == 0 {
				id = "churn"
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				bid := auction.Bid{NodeID: i, Qualities: []float64{0.4, 0.6}, Payment: 0.1}
				ex.SubmitBid(id, bid) //nolint:errcheck // expected churn errors
				if n%8 == 0 {
					ex.CloseRound(id) //nolint:errcheck // below-quorum/unknown are fine
				}
			}
		}(i)
	}

	// Scraper: the snapshot and the Prometheus exposition both walk the
	// published table. With exactly this test mutating the job set,
	// jobs_active must always be 1 (stable) or 2 (stable + churn) — a 0 or
	// 3 would mean a scrape saw a half-published or double-published table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := ex.Metrics().JobsActive; n < 1 || n > 2 {
				t.Errorf("jobs_active = %d, want 1 or 2", n)
				return
			}
			buf.Reset()
			if err := writePrometheus(&buf, ex); err != nil {
				t.Errorf("scrape during churn: %v", err)
				return
			}
		}
	}()

	// Epoch watcher: each publish bumps the generation by exactly one
	// under ex.mu, so a reader polling the table must see a non-decreasing
	// epoch and a consistent (epoch, jobs) pair.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab := ex.table.Load()
			if tab.epoch < last {
				t.Errorf("table epoch went backwards: %d after %d", tab.epoch, last)
				return
			}
			last = tab.epoch
			if len(tab.ids) != len(tab.jobs) {
				t.Errorf("published table torn: %d ids vs %d jobs", len(tab.ids), len(tab.jobs))
				return
			}
		}
	}()

	for k := 0; k < churns; k++ {
		if _, err := ex.CreateJob(churnSpec(t, "churn", int64(k))); err != nil {
			t.Fatal(err)
		}
		if err := ex.RemoveJob("churn"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The stable job survived the churn storm intact: a fresh round still
	// runs end to end.
	if _, ok := ex.Job("stable"); !ok {
		t.Fatal("stable job lost during churn")
	}
	// The submitters stop mid-round, so their last bids may still be
	// pending under the node IDs the fresh round is about to use; close
	// that round out first (ErrBelowQuorum when nothing was pending).
	if _, err := ex.CloseRound("stable"); err != nil && !errors.Is(err, ErrBelowQuorum) {
		t.Fatalf("draining the churn storm's last round: %v", err)
	}
	for _, b := range testBids(1, 99, 4) {
		if _, err := ex.SubmitBid("stable", b); err != nil {
			t.Fatalf("post-churn submit: %v", err)
		}
	}
	if _, err := ex.CloseRound("stable"); err != nil {
		t.Fatalf("post-churn close: %v", err)
	}
}

// TestJobTablePublishOrdering pins the release-barrier contract: a job
// resolved lock-free from the published table is always fully constructed
// (spec applied, auctioneer live), because CreateJob publishes only after
// every field write. A resolver polling for each new ID must never observe
// a partially initialized job.
func TestJobTablePublishOrdering(t *testing.T) {
	const jobs = 64
	ex := New(Options{})
	defer ex.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < jobs; k++ {
			id := fmt.Sprintf("pub-%d", k)
			for {
				j, ok := ex.Job(id)
				if !ok {
					continue
				}
				// Visible implies constructed: the spec round-trips and the
				// job answers stats without a lock on the exchange.
				if j.ID() != id {
					t.Errorf("job %s resolved with ID %s", id, j.ID())
				}
				if j.Round() < 1 {
					t.Errorf("job %s visible with round %d", id, j.Round())
				}
				break
			}
		}
	}()
	for k := 0; k < jobs; k++ {
		if _, err := ex.CreateJob(churnSpec(t, fmt.Sprintf("pub-%d", k), int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
