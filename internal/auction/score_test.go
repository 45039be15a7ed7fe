package auction

import (
	"math"
	"math/rand"
	"testing"
)

func TestAdditiveRule(t *testing.T) {
	r, err := NewAdditive(0.4, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Value(1,1,1) = %v, want 1", got)
	}
	if got := r.Value([]float64{2, 0, 0}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Value(2,0,0) = %v, want 0.8", got)
	}
	if r.Dims() != 3 {
		t.Errorf("Dims = %d, want 3", r.Dims())
	}
}

func TestLeontiefRule(t *testing.T) {
	r, err := NewLeontief(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value([]float64{0.75, 0.8421}); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("Value = %v, want 0.375 (min of 0.375, 0.42105)", got)
	}
}

func TestCobbDouglasRule(t *testing.T) {
	// The paper simulator's rule: s(q1, q2) = 25·q1·q2.
	r, err := NewCobbDouglas(25, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value([]float64{0.5, 0.8}); math.Abs(got-10) > 1e-12 {
		t.Errorf("Value = %v, want 10", got)
	}
	// Negative qualities clamp to zero rather than going complex.
	if got := r.Value([]float64{-1, 0.8}); got != 0 {
		t.Errorf("Value with negative quality = %v, want 0", got)
	}
}

func TestRuleConstructorErrors(t *testing.T) {
	if _, err := NewAdditive(); err == nil {
		t.Error("empty additive: want error")
	}
	if _, err := NewAdditive(1, -1); err == nil {
		t.Error("negative coefficient: want error")
	}
	if _, err := NewLeontief(0); err == nil {
		t.Error("zero coefficient: want error")
	}
	if _, err := NewCobbDouglas(-1, 1); err == nil {
		t.Error("negative scale: want error")
	}
	if _, err := NewCobbDouglas(1, math.NaN()); err == nil {
		t.Error("NaN exponent: want error")
	}
}

func TestScoreQuasiLinear(t *testing.T) {
	r, err := NewAdditive(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Score(r, []float64{0.3, 0.4}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Score = %v, want 0.5", s)
	}
	if _, err := Score(r, []float64{0.3}, 0.2); err == nil {
		t.Error("dimension mismatch: want error")
	}
	if _, err := Score(r, []float64{math.Inf(1), 0}, 0.2); err == nil {
		t.Error("infinite quality: want error")
	}
}

func TestNormalizedRule(t *testing.T) {
	inner, err := NewLeontief(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewNormalized(inner, []float64{1000, 5}, []float64{5000, 100})
	if err != nil {
		t.Fatal(err)
	}
	// Node A of the walk-through: (4000, 85Mb) -> normalized (0.75, 0.8421).
	got := r.Value([]float64{4000, 85})
	if math.Abs(got-0.375) > 1e-4 {
		t.Errorf("normalized Value = %v, want 0.375", got)
	}
	if _, err := NewNormalized(inner, []float64{0}, []float64{1, 2}); err == nil {
		t.Error("range dims mismatch: want error")
	}
	if _, err := NewNormalized(inner, []float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("empty range: want error")
	}
}

// TestWalkThroughExample reproduces the five-node example of §III-B
// (Fig. 3) exactly: both rounds of bids, the published score table, and the
// winner sets {A, D, E} then {A, C, E}.
func TestWalkThroughExample(t *testing.T) {
	inner, err := NewLeontief(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rule, err := NewNormalized(inner, []float64{1000, 5}, []float64{5000, 100})
	if err != nil {
		t.Fatal(err)
	}

	// Node IDs: A=0, B=1, C=2, D=3, E=4.
	round1 := []Bid{
		{NodeID: 0, Qualities: []float64{4000, 85}, Payment: 0.20},
		{NodeID: 1, Qualities: []float64{3000, 35}, Payment: 0.10},
		{NodeID: 2, Qualities: []float64{3500, 75}, Payment: 0.18},
		{NodeID: 3, Qualities: []float64{5000, 85}, Payment: 0.20},
		{NodeID: 4, Qualities: []float64{5000, 100}, Payment: 0.20},
	}
	wantScores1 := []float64{0.175, 0.0579, 0.1325, 0.2211, 0.300}

	rng := rand.New(rand.NewSource(1))
	out, err := Select(SelectionRequest{Rule: rule, Bids: round1, K: 3, Payment: FirstPrice}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantScores1 {
		if math.Abs(out.Scores[i]-want) > 5e-4 {
			t.Errorf("round 1 score[%d] = %.4f, want %.4f", i, out.Scores[i], want)
		}
	}
	wantWinners1 := []int{4, 3, 0} // E, D, A in descending score order
	gotWinners1 := out.WinnerIDs()
	for i := range wantWinners1 {
		if gotWinners1[i] != wantWinners1[i] {
			t.Errorf("round 1 winners = %v, want %v", gotWinners1, wantWinners1)
			break
		}
	}
	// First-price payments equal the asked payments (the narrative text of
	// §III-B quotes the scores here; Fig. 3's p column shows 0.20 each).
	for _, w := range out.Winners {
		if w.Payment != w.Bid.Payment {
			t.Errorf("first-price payment %v != asked %v", w.Payment, w.Bid.Payment)
		}
	}

	round2 := []Bid{
		{NodeID: 0, Qualities: []float64{4000, 85}, Payment: 0.16},
		{NodeID: 1, Qualities: []float64{3500, 45}, Payment: 0.10},
		{NodeID: 2, Qualities: []float64{4000, 80}, Payment: 0.15},
		{NodeID: 3, Qualities: []float64{4000, 80}, Payment: 0.20},
		{NodeID: 4, Qualities: []float64{5000, 100}, Payment: 0.30},
	}
	wantScores2 := []float64{0.215, 0.1105, 0.225, 0.175, 0.200}
	out2, err := Select(SelectionRequest{Rule: rule, Bids: round2, K: 3, Payment: FirstPrice}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantScores2 {
		if math.Abs(out2.Scores[i]-want) > 5e-4 {
			t.Errorf("round 2 score[%d] = %.4f, want %.4f", i, out2.Scores[i], want)
		}
	}
	wantWinners2 := []int{2, 0, 4} // C, A, E
	gotWinners2 := out2.WinnerIDs()
	for i := range wantWinners2 {
		if gotWinners2[i] != wantWinners2[i] {
			t.Errorf("round 2 winners = %v, want %v", gotWinners2, wantWinners2)
			break
		}
	}
	// Round 2 first-price payments from the paper: 0.16, 0.15, 0.3.
	wantPay := map[int]float64{0: 0.16, 2: 0.15, 4: 0.30}
	for _, w := range out2.Winners {
		if want := wantPay[w.Bid.NodeID]; math.Abs(w.Payment-want) > 1e-12 {
			t.Errorf("round 2 payment for node %d = %v, want %v", w.Bid.NodeID, w.Payment, want)
		}
	}
}
