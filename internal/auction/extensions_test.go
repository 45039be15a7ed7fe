package auction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func budgetBids() []Bid {
	return []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.50}, // score 0.40
		{NodeID: 2, Qualities: []float64{0.8}, Payment: 0.20}, // score 0.60
		{NodeID: 3, Qualities: []float64{0.7}, Payment: 0.10}, // score 0.60
		{NodeID: 4, Qualities: []float64{0.5}, Payment: 0.05}, // score 0.45
	}
}

func TestSelectBudgetRespectsBudget(t *testing.T) {
	rule := simpleRule(t)
	for _, budget := range []float64{0.05, 0.15, 0.3, 1.0} {
		out, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 3, Budget: budget, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.TotalPayment(); got > budget+1e-12 {
			t.Errorf("budget %v: paid %v", budget, got)
		}
	}
}

func TestSelectBudgetSkipsExpensiveBids(t *testing.T) {
	rule := simpleRule(t)
	// Budget 0.16: top scorers are nodes 2/3 (0.60 each, paying 0.20/0.10).
	// Node 2 (0.20) exceeds the budget, node 3 fits (remaining 0.06), then
	// node 4 (0.05) fits. Node 1 (0.50) never fits.
	out, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 3, Budget: 0.16, Payment: FirstPrice}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	ids := out.WinnerIDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 4 {
		t.Errorf("winners = %v, want [3 4] (greedy skip of too-expensive bids)", ids)
	}
	if math.Abs(out.TotalPayment()-0.15) > 1e-12 {
		t.Errorf("total = %v, want 0.15", out.TotalPayment())
	}
}

func TestSelectBudgetGenerousBudgetMatchesPlain(t *testing.T) {
	rule := simpleRule(t)
	plain, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 3, Payment: FirstPrice}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 3, Budget: 100, Payment: FirstPrice}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain.WinnerIDs(), budgeted.WinnerIDs()
	if len(a) != len(b) {
		t.Fatalf("winner counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("generous budget changed winners: %v vs %v", a, b)
			break
		}
	}
}

func TestSelectBudgetValidation(t *testing.T) {
	rule := simpleRule(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 0, Budget: 1, Payment: FirstPrice}, rng); err == nil {
		t.Error("K=0: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 2, Budget: -1, Payment: FirstPrice}, rng); err == nil {
		t.Error("negative budget: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 2, Budget: math.NaN(), Payment: FirstPrice}, rng); err == nil {
		t.Error("NaN budget: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: nil, K: 2, Budget: 1, Payment: FirstPrice}, rng); err == nil {
		t.Error("no bids: want error")
	}
}

func TestSelectBudgetSecondPriceClamped(t *testing.T) {
	rule := simpleRule(t)
	budget := 0.40
	out, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 2, Budget: budget, Payment: SecondPrice}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalPayment(); got > budget+1e-12 {
		t.Errorf("second-price total %v exceeds budget %v", got, budget)
	}
	for _, w := range out.Winners {
		if w.Payment < w.Bid.Payment-1e-12 {
			t.Errorf("clamping paid node %d below its ask: %v < %v", w.Bid.NodeID, w.Payment, w.Bid.Payment)
		}
	}
}

// Property: the budgeted auction never pays more than the budget and never
// selects more than K, over random pools.
func TestSelectBudgetProperty(t *testing.T) {
	rule := simpleRule(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		k := 1 + rng.Intn(6)
		budget := 0.05 + rng.Float64()
		bids := make([]Bid, n)
		for i := range bids {
			bids[i] = Bid{NodeID: i, Qualities: []float64{rng.Float64()}, Payment: rng.Float64() * 0.4}
		}
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Budget: budget, Payment: FirstPrice}, rng)
		if err != nil {
			return false
		}
		return out.TotalPayment() <= budget+1e-9 && len(out.Winners) <= k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPsiVectorUniformMatchesScalarPsi(t *testing.T) {
	rule := simpleRule(t)
	bids := budgetBids()
	uniform := func(int) float64 { return 0.7 }
	vec, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, PsiOf: uniform, Payment: FirstPrice}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Psi: 0.7, Payment: FirstPrice}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := vec.WinnerIDs(), scalar.WinnerIDs()
	if len(a) != len(b) {
		t.Fatalf("winner counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("uniform psi vector diverged from scalar psi: %v vs %v", a, b)
			break
		}
	}
}

func TestPsiVectorValidation(t *testing.T) {
	rule := simpleRule(t)
	rng := rand.New(rand.NewSource(1))
	bad := func(int) float64 { return 1.5 }
	if _, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 2, PsiOf: bad, Payment: FirstPrice}, rng); err == nil {
		t.Error("psi > 1: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: budgetBids(), K: 0, PsiOf: func(int) float64 { return 1 }, Payment: FirstPrice}, rng); err == nil {
		t.Error("K=0: want error")
	}
}

func TestRankPsiDecaysWithRank(t *testing.T) {
	rule := simpleRule(t)
	bids := budgetBids()
	psiOf, err := RankPsi(rule, bids, 0.9, 0.6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Score order: nodes 2/3 tie at 0.60, then 4 (0.45), then 1 (0.40).
	// The top-ranked node gets 0.9; each later rank decays by 0.6.
	top := math.Max(psiOf(2), psiOf(3))
	if math.Abs(top-0.9) > 1e-12 {
		t.Errorf("top psi = %v, want 0.9", top)
	}
	if !(psiOf(1) < psiOf(4) || psiOf(1) == 0.1) {
		t.Errorf("lowest-score node should have smallest psi: psi(1)=%v psi(4)=%v", psiOf(1), psiOf(4))
	}
	for _, id := range []int{1, 2, 3, 4} {
		if p := psiOf(id); p < 0.1-1e-12 || p > 0.9+1e-12 {
			t.Errorf("psi(%d) = %v outside [floor, top]", id, p)
		}
	}
	// Unknown nodes fall back to the floor.
	if p := psiOf(99); p != 0.1 {
		t.Errorf("unknown node psi = %v, want floor 0.1", p)
	}
}

func TestRankPsiValidation(t *testing.T) {
	rule := simpleRule(t)
	if _, err := RankPsi(rule, budgetBids(), 1.5, 0.5, 0.1); err == nil {
		t.Error("top > 1: want error")
	}
	if _, err := RankPsi(rule, budgetBids(), 0.9, 0, 0.1); err == nil {
		t.Error("decay = 0: want error")
	}
	if _, err := RankPsi(rule, budgetBids(), 0.5, 0.5, 0.9); err == nil {
		t.Error("floor > top: want error")
	}
	badBids := []Bid{{NodeID: 1, Qualities: []float64{1, 2}, Payment: 0}}
	if _, err := RankPsi(rule, badBids, 0.9, 0.5, 0.1); err == nil {
		t.Error("bad bid dims: want error")
	}
}

// TestRankPsiSelectionFillsK: the per-node-ψ auction still fills the winner
// set when enough eligible bids exist.
func TestRankPsiSelectionFillsK(t *testing.T) {
	rule := simpleRule(t)
	bids := make([]Bid, 20)
	for i := range bids {
		bids[i] = Bid{NodeID: i, Qualities: []float64{float64(i+1) / 20}, Payment: 0.01}
	}
	psiOf, err := RankPsi(rule, bids, 0.9, 0.9, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 5, PsiOf: psiOf, Payment: FirstPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Winners) != 5 {
			t.Fatalf("seed %d: %d winners, want 5", seed, len(out.Winners))
		}
	}
}
