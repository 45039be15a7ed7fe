package auction

import (
	"math/rand"
	"reflect"
	"testing"
)

// scoredFixture builds a rule and a deterministic bid pool with deliberate
// score ties (duplicated quality/payment pairs) so the tiebreak path is
// exercised.
func scoredFixture(t *testing.T, n int) (ScoringRule, []Bid, []float64) {
	t.Helper()
	rule, err := NewAdditive(0.6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bids := make([]Bid, n)
	for i := range bids {
		q := []float64{rng.Float64(), rng.Float64()}
		p := 0.05 + 0.2*rng.Float64()
		if i%5 == 4 {
			// Exact duplicate of the previous bid: a guaranteed score tie.
			q = append([]float64(nil), bids[i-1].Qualities...)
			p = bids[i-1].Payment
		}
		bids[i] = Bid{NodeID: i, Qualities: q, Payment: p}
	}
	scores := make([]float64, n)
	for i, b := range bids {
		s, err := Score(rule, b.Qualities, b.Payment)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = s
	}
	return rule, bids, scores
}

func TestSelectScoredMatchesInline(t *testing.T) {
	rule, bids, scores := scoredFixture(t, 50)
	for _, payment := range []PaymentRule{FirstPrice, SecondPrice} {
		inline, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 10, Payment: payment}, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		scored, err := Select(SelectionRequest{Rule: rule, Bids: bids, Scores: scores, K: 10, Payment: payment}, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inline, scored) {
			t.Errorf("%v: scored outcome differs from inline outcome", payment)
		}
	}
}

func TestSelectPsiScoredMatchesInline(t *testing.T) {
	rule, bids, scores := scoredFixture(t, 50)
	inline, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 10, Psi: 0.7, Payment: FirstPrice}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	scored, err := Select(SelectionRequest{Rule: rule, Bids: bids, Scores: scores, K: 10, Psi: 0.7, Payment: FirstPrice}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, scored) {
		t.Error("psi scored outcome differs from inline outcome")
	}
}

func TestSelectScoredValidation(t *testing.T) {
	rule, bids, scores := scoredFixture(t, 10)
	if _, err := Select(SelectionRequest{Rule: rule, Bids: bids, Scores: scores[:5], K: 3, Payment: FirstPrice}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("short scores: expected error")
	}
	// The scores slice must not be retained: mutating it after the call
	// must not affect the outcome's recorded scores.
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, Scores: scores, K: 3, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), out.Scores...)
	for i := range scores {
		scores[i] = -1
	}
	if !reflect.DeepEqual(before, out.Scores) {
		t.Error("Outcome.Scores aliases the caller's score buffer")
	}
}

// TestRunScoredMatchesRun pins the precomputed-score entry point against
// the scoring one: identical outcomes AND identical rng draw counts for a
// seeded auctioneer, across configurations with different draw patterns
// (plain, second-price, ψ-admission). The exchange's WAL replay depends on
// this equivalence.
func TestRunScoredMatchesRun(t *testing.T) {
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
			src1, src2 := newEquivSource(11), newEquivSource(11)
			a1, err := NewAuctioneer(cfg, rand.New(src1))
			if err != nil {
				t.Fatal(err)
			}
			a2, err := NewAuctioneer(cfg, rand.New(src2))
			if err != nil {
				t.Fatal(err)
			}
			var held []Outcome
			for round := 0; round < 5; round++ {
				_, bids, scores := scoredFixture(t, 64)
				for i := range bids { // a different slate per round
					bids[i].Payment += 0.001 * float64(round*(i%7))
					scores[i], err = Score(rule, bids[i].Qualities, bids[i].Payment)
					if err != nil {
						t.Fatal(err)
					}
				}
				want, err := a1.Run(bids)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a2.RunScored(bids, scores)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: RunScored diverges from Run", round)
				}
				if src1.n != src2.n {
					t.Fatalf("round %d: draw counts diverged: %d vs %d", round, src1.n, src2.n)
				}
				held = append(held, got, want.Clone())
			}
			// Every round's result owns its memory: later rounds on the same
			// auctioneer left the earlier ones as they were returned.
			for i := 0; i < len(held); i += 2 {
				if !reflect.DeepEqual(held[i], held[i+1]) {
					t.Fatalf("round %d: a later round rewrote a returned outcome", i/2)
				}
			}
			if a1.Round() != a2.Round() {
				t.Fatalf("round counters diverged: %d vs %d", a1.Round(), a2.Round())
			}
			if _, err := a2.RunScored(nil, nil); err == nil {
				t.Fatal("RunScored without a score vector must fail")
			}
		})
	}
}
