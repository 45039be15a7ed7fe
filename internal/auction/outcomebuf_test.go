package auction

import (
	"math/rand"
	"reflect"
	"testing"
)

func bufTestBids(n int, seed int64) []Bid {
	rng := rand.New(rand.NewSource(seed))
	bids := make([]Bid, n)
	for i := range bids {
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   0.05 + 0.25*rng.Float64(),
		}
	}
	return bids
}

func bufTestScores(t *testing.T, rule ScoringRule, bids []Bid) []float64 {
	t.Helper()
	scores := make([]float64, len(bids))
	for i, b := range bids {
		s, err := Score(rule, b.Qualities, b.Payment)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = s
	}
	return scores
}

// TestRunScoredIntoMatchesRun pins the pooled entry point against the
// allocating one: identical outcomes AND identical rng draw sequence for a
// seeded auctioneer, across configurations with different draw patterns
// (plain, second-price, ψ-admission). The exchange's WAL replay depends on
// this equivalence.
func TestRunScoredIntoMatchesRun(t *testing.T) {
	rule, err := NewAdditive(0.6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"plain":        {Rule: rule, K: 8},
		"second-price": {Rule: rule, K: 8, Payment: SecondPrice},
		"psi":          {Rule: rule, K: 8, Psi: 0.7},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			a1, err := NewAuctioneer(cfg, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			a2, err := NewAuctioneer(cfg, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			var buf OutcomeBuffer
			for round := 0; round < 5; round++ {
				bids := bufTestBids(64, int64(round))
				scores := bufTestScores(t, rule, bids)
				want, err := a1.Run(bids)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a2.RunScoredInto(bids, scores, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: pooled outcome diverges from the owning one", round)
				}
				buf.Recycle()
			}
			if a1.Round() != a2.Round() {
				t.Fatalf("round counters diverged: %d vs %d", a1.Round(), a2.Round())
			}
		})
	}
}

// TestCloneIntoOwnershipRules pins the buffer contract: the clone is
// independent of its source, growth never corrupts an already-issued
// outcome, nil-ness survives, and the generation advances on Recycle.
func TestCloneIntoOwnershipRules(t *testing.T) {
	rule, err := NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var sel Selector
	var buf OutcomeBuffer
	small, err := sel.Select(SelectionRequest{Rule: rule, Bids: bufTestBids(16, 1), K: 4}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	first := small.CloneInto(&buf)
	firstCopy := first.Clone()
	gen := buf.Generation()

	// A bigger outcome forces the buffer to grow; the previously issued
	// outcome must keep reading its (orphaned) old backing intact.
	big, err := sel.Select(SelectionRequest{Rule: rule, Bids: bufTestBids(256, 3), K: 12}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	bigClone := big.Clone()
	got := bigClone.CloneInto(&buf)
	if !reflect.DeepEqual(got, bigClone) {
		t.Fatal("CloneInto result differs from its source")
	}
	if !reflect.DeepEqual(first, firstCopy) {
		t.Fatal("growing the buffer corrupted a previously issued outcome")
	}
	if buf.Generation() != gen {
		t.Fatal("CloneInto must not advance the generation; only Recycle does")
	}
	buf.Recycle()
	if buf.Generation() != gen+1 {
		t.Fatal("Recycle must advance the generation")
	}

	// Nil-ness: a zero-winner ψ outcome keeps nil Winners through CloneInto
	// (reflect.DeepEqual parity with Clone).
	empty := Outcome{Scores: []float64{1, 2}}
	if got := empty.CloneInto(&buf); got.Winners != nil || !reflect.DeepEqual(got, empty.Clone()) {
		t.Fatalf("nil Winners not preserved: %+v", got)
	}
	zero := Outcome{}
	if got := zero.CloneInto(&buf); got.Winners != nil || got.Scores != nil {
		t.Fatalf("zero outcome not preserved: %+v", got)
	}
}
