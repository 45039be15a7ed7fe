package auction

import (
	"math/rand"
	"reflect"
	"testing"
)

// scoredFixture builds a rule and a deterministic bid pool with deliberate
// score ties (duplicated quality/payment pairs) so the tiebreak path is
// exercised, plus each bid's score as Score computes it.
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

// TestSelectScoredMatchesInline pins the test seam the tie and NaN tests
// stand on: ranking, selecting and paying over Score's values handed in
// through selectWithScores is Select, outcome for outcome — so what those
// tests learn about hand-made score vectors holds for the real pipeline.
func TestSelectScoredMatchesInline(t *testing.T) {
	rule, bids, scores := scoredFixture(t, 50)
	for _, payment := range []PaymentRule{FirstPrice, SecondPrice} {
		req := SelectionRequest{Rule: rule, Bids: bids, K: 10, Payment: payment}
		inline, err := Select(req, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		scored, err := selectWithScores(req, scores, rand.New(rand.NewSource(99)))
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
	req := SelectionRequest{Rule: rule, Bids: bids, K: 10, Psi: 0.7, Payment: FirstPrice}
	inline, err := Select(req, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	scored, err := selectWithScores(req, scores, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, scored) {
		t.Error("psi scored outcome differs from inline outcome")
	}
}
