package auction

import (
	"math"
	"math/rand"
	"testing"
)

func TestPsiOneEqualsPlainFMore(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.1},
		{NodeID: 2, Qualities: []float64{0.5}, Payment: 0.1},
		{NodeID: 3, Qualities: []float64{0.7}, Payment: 0.1},
	}
	plain, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: FirstPrice}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	psi, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Psi: 1, Payment: FirstPrice}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pw, gw := plain.WinnerIDs(), psi.WinnerIDs()
	if len(pw) != len(gw) {
		t.Fatalf("winner counts differ: %v vs %v", pw, gw)
	}
	for i := range pw {
		if pw[i] != gw[i] {
			t.Errorf("ψ=1 winners %v differ from FMore %v", gw, pw)
			break
		}
	}
}

func TestPsiValidation(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{{NodeID: 1, Qualities: []float64{0.5}, Payment: 0.1}}
	rng := rand.New(rand.NewSource(1))
	for _, psi := range []float64{-0.5, 1.5, math.NaN()} {
		if _, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 1, Psi: psi, Payment: FirstPrice}, rng); err == nil {
			t.Errorf("psi=%v: want error", psi)
		}
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 0, Psi: 0.5, Payment: FirstPrice}, rng); err == nil {
		t.Error("K=0: want error")
	}
}

func TestPsiAlwaysFillsKWhenEnoughBids(t *testing.T) {
	rule := simpleRule(t)
	bids := make([]Bid, 10)
	for i := range bids {
		bids[i] = Bid{NodeID: i, Qualities: []float64{float64(i+1) / 10}, Payment: 0.01}
	}
	for seed := int64(0); seed < 30; seed++ {
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 4, Psi: 0.3, Payment: FirstPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Winners) != 4 {
			t.Fatalf("seed %d: got %d winners, want 4 (repeated passes must fill K)", seed, len(out.Winners))
		}
	}
}

// TestPsiSpreadsSelection: with small ψ, lower-ranked nodes win materially
// more often than under plain FMore (the diversity effect of §III-C).
func TestPsiSpreadsSelection(t *testing.T) {
	rule := simpleRule(t)
	const n, k, trials = 20, 5, 3000
	bids := make([]Bid, n)
	for i := range bids {
		// Node 0 scores highest, node n−1 lowest.
		bids[i] = Bid{NodeID: i, Qualities: []float64{1 - float64(i)/float64(n)}, Payment: 0.01}
	}
	countBottom := func(psi float64) int {
		rng := rand.New(rand.NewSource(11))
		wins := 0
		for trial := 0; trial < trials; trial++ {
			out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Psi: psi, Payment: FirstPrice}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range out.WinnerIDs() {
				if id >= n/2 {
					wins++
				}
			}
		}
		return wins
	}
	lowPsi := countBottom(0.2)
	highPsi := countBottom(0.95)
	if lowPsi <= highPsi {
		t.Errorf("bottom-half selections: ψ=0.2 gave %d, ψ=0.95 gave %d; want low ψ to diversify", lowPsi, highPsi)
	}
	if highPsi > trials*k/10 {
		t.Errorf("ψ=0.95 picked bottom half %d times; should be rare", highPsi)
	}
}

// TestProposition2PsiNeutralUnderIdenticalTheta: when every node has the
// same score (identical θ), any node is selected with probability K/N
// regardless of ψ.
func TestProposition2PsiNeutralUnderIdenticalTheta(t *testing.T) {
	rule := simpleRule(t)
	const n, k, trials = 10, 3, 6000
	bids := make([]Bid, n)
	for i := range bids {
		bids[i] = Bid{NodeID: i, Qualities: []float64{0.5}, Payment: 0.1}
	}
	for _, psi := range []float64{0.3, 0.7, 1} {
		rng := rand.New(rand.NewSource(17))
		wins := make([]int, n)
		for trial := 0; trial < trials; trial++ {
			out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Psi: psi, Payment: FirstPrice}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range out.WinnerIDs() {
				wins[id]++
			}
		}
		want := float64(k) / float64(n)
		for id, w := range wins {
			got := float64(w) / trials
			if math.Abs(got-want) > 0.03 {
				t.Errorf("ψ=%v node %d win rate %v, want %v (Proposition 2)", psi, id, got, want)
			}
		}
	}
}

func TestSelectionProbabilityFormulas(t *testing.T) {
	// At ψ=1 both formulas certify selection.
	if got := PaperSelectionProbability(10, 3, 1); got != 1 {
		t.Errorf("paper Pr(ψ=1) = %v, want 1", got)
	}
	if got := ExactSelectionProbability(10, 3, 1); got != 1 {
		t.Errorf("exact Pr(ψ=1) = %v, want 1", got)
	}
	// Degenerate inputs.
	if got := PaperSelectionProbability(2, 3, 0.5); got != 0 {
		t.Errorf("paper Pr(N<K) = %v, want 0", got)
	}
	if got := ExactSelectionProbability(2, 3, 0.5); got != 0 {
		t.Errorf("exact Pr(N<K) = %v, want 0", got)
	}
	// The exact form is monotone in ψ and bounded by 1.
	prev := 0.0
	for _, psi := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		p := ExactSelectionProbability(30, 5, psi)
		if p < prev-1e-12 || p > 1 {
			t.Errorf("exact Pr not monotone/bounded at ψ=%v: %v", psi, p)
		}
		prev = p
	}
	// Larger N gives more draws, so the fill probability grows.
	if ExactSelectionProbability(50, 5, 0.3) < ExactSelectionProbability(10, 5, 0.3) {
		t.Error("exact Pr should grow with N")
	}
	// The paper's variant (with C(i+K, i)) upper-bounds the exact
	// negative-binomial form since C(i+K, i) >= C(i+K−1, i).
	for _, psi := range []float64{0.3, 0.6, 0.9} {
		if PaperSelectionProbability(20, 4, psi) < ExactSelectionProbability(20, 4, psi)-1e-12 {
			t.Errorf("paper Pr < exact Pr at ψ=%v", psi)
		}
	}
}

// TestExactSelectionProbabilityMatchesMonteCarlo validates the
// negative-binomial closed form against simulation of a single admission
// pass.
func TestExactSelectionProbabilityMatchesMonteCarlo(t *testing.T) {
	const n, k = 12, 4
	const psi = 0.45
	const trials = 40000
	rng := rand.New(rand.NewSource(23))
	fills := 0
	for trial := 0; trial < trials; trial++ {
		admitted := 0
		for i := 0; i < n && admitted < k; i++ {
			if rng.Float64() < psi {
				admitted++
			}
		}
		if admitted >= k {
			fills++
		}
	}
	want := ExactSelectionProbability(n, k, psi)
	got := float64(fills) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Monte Carlo fill rate %v vs closed form %v", got, want)
	}
}

func TestBinomialCoeff(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {0, 0, 1}, {3, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := binomialCoeff(c.n, c.k); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("C(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestPsiExcludesNegativeScores(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.1}, // score 0.8
		{NodeID: 2, Qualities: []float64{0.1}, Payment: 0.9}, // score -0.8
	}
	for seed := int64(0); seed < 10; seed++ {
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Psi: 0.5, Payment: FirstPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range out.WinnerIDs() {
			if id == 2 {
				t.Fatal("ψ-FMore selected an IR-violating bid")
			}
		}
	}
}

func TestPsiAllNegativeScoresYieldsEmptyOutcome(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{{NodeID: 1, Qualities: []float64{0.1}, Payment: 0.9}}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 1, Psi: 0.5, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 0 {
		t.Errorf("got %d winners, want 0", len(out.Winners))
	}
	if len(out.Scores) != 1 {
		t.Errorf("scores should still be reported for analysis, got %d", len(out.Scores))
	}
}
