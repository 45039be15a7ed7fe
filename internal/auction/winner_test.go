package auction

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func simpleRule(t *testing.T) ScoringRule {
	t.Helper()
	r, err := NewAdditive(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSelectTopK(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.1}, // score 0.8
		{NodeID: 2, Qualities: []float64{0.5}, Payment: 0.1}, // score 0.4
		{NodeID: 3, Qualities: []float64{0.7}, Payment: 0.1}, // score 0.6
		{NodeID: 4, Qualities: []float64{0.3}, Payment: 0.1}, // score 0.2
	}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	got := out.WinnerIDs()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("winners = %v, want [1 3]", got)
	}
	if len(out.Scores) != 4 {
		t.Errorf("Scores records %d entries, want 4 (winners and losers)", len(out.Scores))
	}
}

func TestSelectFewerBidsThanK(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.1}}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 5, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 1 {
		t.Errorf("winners = %d, want 1 (all bids when K exceeds them)", len(out.Winners))
	}
}

func TestSelectExcludesNegativeScores(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.1},  // score 0.8
		{NodeID: 2, Qualities: []float64{0.1}, Payment: 0.5},  // score -0.4
		{NodeID: 3, Qualities: []float64{0.2}, Payment: 0.25}, // score -0.05
	}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 3, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 1 || out.Winners[0].Bid.NodeID != 1 {
		t.Errorf("winners = %v, want only node 1 (aggregator IR excludes negative scores)", out.WinnerIDs())
	}
	if out.AggregatorProfit < 0 {
		t.Errorf("aggregator profit %v < 0 violates IR", out.AggregatorProfit)
	}
}

func TestSelectErrors(t *testing.T) {
	rule := simpleRule(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := Select(SelectionRequest{Rule: rule, Bids: nil, K: 2, Payment: FirstPrice}, rng); !errors.Is(err, ErrNoBids) {
		t.Errorf("no bids: got %v, want ErrNoBids", err)
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: []Bid{{NodeID: 1, Qualities: []float64{1, 2}, Payment: 0}}, K: 2, Payment: FirstPrice}, rng); err == nil {
		t.Error("dimension mismatch: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: []Bid{{NodeID: 1, Qualities: []float64{1}, Payment: math.NaN()}}, K: 2, Payment: FirstPrice}, rng); err == nil {
		t.Error("NaN payment: want error")
	}
	if _, err := Select(SelectionRequest{Rule: rule, Bids: []Bid{{NodeID: 1, Qualities: []float64{1}, Payment: 0}}, K: 0, Payment: FirstPrice}, rng); err == nil {
		t.Error("K=0: want error")
	}
}

func TestTieBreakIsRandom(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.5}, Payment: 0.1},
		{NodeID: 2, Qualities: []float64{0.5}, Payment: 0.1},
	}
	saw := map[int]bool{}
	for seed := int64(0); seed < 64 && len(saw) < 2; seed++ {
		out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 1, Payment: FirstPrice}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		saw[out.Winners[0].Bid.NodeID] = true
	}
	if !saw[1] || !saw[2] {
		t.Errorf("coin-flip tie-break never favored both nodes: saw %v", saw)
	}
}

func TestSecondPricePaysAtLeastFirstPrice(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.10}, // score 0.80
		{NodeID: 2, Qualities: []float64{0.8}, Payment: 0.15}, // score 0.65
		{NodeID: 3, Qualities: []float64{0.7}, Payment: 0.20}, // score 0.50
	}
	first, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: SecondPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Winners {
		if second.Winners[i].Payment < first.Winners[i].Payment-1e-12 {
			t.Errorf("second-price payment %v < first-price %v for node %d",
				second.Winners[i].Payment, first.Winners[i].Payment, first.Winners[i].Bid.NodeID)
		}
	}
	// Winner 1 is paid up to score parity with the 3rd (excluded) bid:
	// p = s(q) − refScore = 0.9 − 0.5 = 0.4.
	if got := second.Winners[0].Payment; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("second-price top payment = %v, want 0.4", got)
	}
	// Winners' selection is identical under either payment rule.
	for i := range first.Winners {
		if first.Winners[i].Bid.NodeID != second.Winners[i].Bid.NodeID {
			t.Error("payment rule changed the winner set")
		}
	}
}

func TestSecondPriceDegeneratesWithoutRunnerUp(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.10},
		{NodeID: 2, Qualities: []float64{0.8}, Payment: 0.15},
	}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: SecondPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range out.Winners {
		if w.Payment != bids[i].Payment && w.Payment != out.Winners[i].Bid.Payment {
			t.Errorf("winner %d payment %v, want asked payment (no reference bid)", i, w.Payment)
		}
	}
}

func TestOutcomeAccessors(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{
		{NodeID: 7, Qualities: []float64{0.9}, Payment: 0.2},
		{NodeID: 9, Qualities: []float64{0.8}, Payment: 0.3},
	}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalPayment(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TotalPayment = %v, want 0.5", got)
	}
	wantProfit := (0.9 - 0.2) + (0.8 - 0.3)
	if math.Abs(out.AggregatorProfit-wantProfit) > 1e-12 {
		t.Errorf("AggregatorProfit = %v, want %v", out.AggregatorProfit, wantProfit)
	}
}

func TestWinnerBidsAreDeepCopies(t *testing.T) {
	rule := simpleRule(t)
	bids := []Bid{{NodeID: 1, Qualities: []float64{0.9}, Payment: 0.2}}
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 1, Payment: FirstPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bids[0].Qualities[0] = -99
	if out.Winners[0].Bid.Qualities[0] == -99 {
		t.Error("winner bid aliases caller's quality slice; want deep copy")
	}
}

func TestAuctioneerLifecycle(t *testing.T) {
	rule := simpleRule(t)
	a, err := NewAuctioneer(Config{Rule: rule, K: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Payment != FirstPrice || a.Config().Psi != 1 {
		t.Errorf("defaults not applied: %+v", a.Config())
	}
	if _, err := a.Run([]Bid{{NodeID: 1, Qualities: []float64{0.5}, Payment: 0.1}}); err != nil {
		t.Fatal(err)
	}
}

func TestAuctioneerConfigValidation(t *testing.T) {
	rule := simpleRule(t)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil rule", Config{K: 1}},
		{"zero K", Config{Rule: rule, K: 0}},
		{"psi > 1", Config{Rule: rule, K: 1, Psi: 1.5}},
		{"psi negative", Config{Rule: rule, K: 1, Psi: -0.1}},
		{"bad payment", Config{Rule: rule, K: 1, Payment: PaymentRule(99)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewAuctioneer(c.cfg, rng); err == nil {
				t.Errorf("config %+v: want error", c.cfg)
			}
		})
	}
	if _, err := NewAuctioneer(Config{Rule: rule, K: 1}, nil); err == nil {
		t.Error("nil rng: want error")
	}
}

func TestPaymentRuleString(t *testing.T) {
	if FirstPrice.String() != "first-price" || SecondPrice.String() != "second-price" {
		t.Error("PaymentRule.String mismatch")
	}
	if PaymentRule(42).String() == "" {
		t.Error("unknown payment rule should still format")
	}
}
