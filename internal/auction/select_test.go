package auction

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func selTestRule(t *testing.T) Additive {
	t.Helper()
	rule, err := NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

func selTestBids(n int, seed int64) []Bid {
	rng := rand.New(rand.NewSource(seed))
	bids := make([]Bid, n)
	for i := range bids {
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   0.05 + 0.3*rng.Float64(),
		}
	}
	return bids
}

// TestSelectorReportsEveryScore is the regression test for the heap path:
// Outcome.Scores must cover every bid of the slate (the HTTP outcome API and
// the persist log expose the full vector), not just the surviving top-K.
func TestSelectorReportsEveryScore(t *testing.T) {
	rule := selTestRule(t)
	bids := selTestBids(100, 3)
	bids[17].Payment = 5 // negative score: excluded from winning, still scored
	var sel Selector
	out, err := sel.Select(SelectionRequest{Rule: rule, Bids: bids, K: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 4 {
		t.Fatalf("want 4 winners, got %d", len(out.Winners))
	}
	if len(out.Scores) != len(bids) {
		t.Fatalf("Outcome.Scores covers %d of %d bids", len(out.Scores), len(bids))
	}
	for i, b := range bids {
		want, err := Score(rule, b.Qualities, b.Payment)
		if err != nil {
			t.Fatal(err)
		}
		if out.Scores[i] != want {
			t.Fatalf("Scores[%d] = %v, want %v", i, out.Scores[i], want)
		}
	}
}

// TestSelectorSecondPriceReference exercises the tracked (K+1)-th reference
// score on the heap path: each winner is paid up to s(q) − s_(K+1).
func TestSelectorSecondPriceReference(t *testing.T) {
	rule := selTestRule(t)
	// Values 0.9, 0.8, 0.7, 0.6 with payments 0.1 each: scores 0.8, 0.7,
	// 0.6, 0.5; with K=2 the reference is the 3rd score 0.6.
	bids := []Bid{
		{NodeID: 0, Qualities: []float64{0.9, 0.9}, Payment: 0.1},
		{NodeID: 1, Qualities: []float64{0.8, 0.8}, Payment: 0.1},
		{NodeID: 2, Qualities: []float64{0.7, 0.7}, Payment: 0.1},
		{NodeID: 3, Qualities: []float64{0.6, 0.6}, Payment: 0.1},
	}
	var sel Selector
	out, err := sel.Select(SelectionRequest{Rule: rule, Bids: bids, K: 2, Payment: SecondPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ids := out.Winners; len(ids) != 2 || ids[0].Bid.NodeID != 0 || ids[1].Bid.NodeID != 1 {
		t.Fatalf("unexpected winners %+v", out.Winners)
	}
	// p' = s(q) − ref: 0.9 − 0.6 = 0.3 and 0.8 − 0.6 = 0.2.
	if p := out.Winners[0].Payment; !almostEq(p, 0.3) {
		t.Fatalf("winner 0 payment %v, want 0.3", p)
	}
	if p := out.Winners[1].Payment; !almostEq(p, 0.2) {
		t.Fatalf("winner 1 payment %v, want 0.2", p)
	}

	// With K >= N there is no reference: degenerates to first-price.
	out, err = sel.Select(SelectionRequest{Rule: rule, Bids: bids, K: 8, Payment: SecondPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range out.Winners {
		if w.Payment != w.Bid.Payment {
			t.Fatalf("no-reference second price must pay the ask, got %v for %v", w.Payment, w.Bid.Payment)
		}
	}

	// A negative (K+1)-th score is floored at zero (aggregator IR): winners
	// can be raised to their full value but no further.
	bids[3].Payment = 2 // score 0.6 − 2 < 0
	out, err = sel.Select(SelectionRequest{Rule: rule, Bids: bids, K: 3, Payment: SecondPrice}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Winners) != 3 {
		t.Fatalf("want 3 winners, got %d", len(out.Winners))
	}
	if p := out.Winners[0].Payment; !almostEq(p, 0.9) {
		t.Fatalf("floored reference should raise payment to s(q) = 0.9, got %v", p)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

// TestSelectorBufferReuse verifies the documented aliasing contract: the
// outcome is rewritten in place by the next Select on the same Selector, and
// Clone decouples it.
func TestSelectorBufferReuse(t *testing.T) {
	rule := selTestRule(t)
	var sel Selector
	first, err := sel.Select(SelectionRequest{Rule: rule, Bids: selTestBids(64, 1), K: 8}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	second, err := sel.Select(SelectionRequest{Rule: rule, Bids: selTestBids(64, 2), K: 8}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if &first.Scores[0] != &second.Scores[0] {
		t.Fatal("expected the second Select to reuse the pooled score buffer")
	}
	if &kept.Scores[0] == &first.Scores[0] {
		t.Fatal("Clone must not alias the pooled score buffer")
	}
	for i := range kept.Winners {
		if &kept.Winners[i].Bid.Qualities[0] == &first.Winners[i].Bid.Qualities[0] {
			t.Fatal("Clone must deep-copy winner qualities")
		}
	}
}

// TestOutcomeCloneOwnsItsMemory pins what every holder of a retained outcome
// relies on: the copy equals its source down to nil-ness, shares no memory
// with it, costs three allocations whatever K is, and one winner's quality
// slice cannot be grown into its neighbour's.
func TestOutcomeCloneOwnsItsMemory(t *testing.T) {
	rule := selTestRule(t)
	var sel Selector
	src, err := sel.Select(SelectionRequest{Rule: rule, Bids: selTestBids(256, 3), K: 12}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	kept := src.Clone()
	want := fmt.Sprintf("%+v", src)
	if !reflect.DeepEqual(kept, src) {
		t.Fatal("Clone differs from its source")
	}
	// The selector moves on to a different slate; the clone must not.
	if _, err := sel.Select(SelectionRequest{Rule: rule, Bids: selTestBids(256, 5), K: 12}, rand.New(rand.NewSource(6))); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", kept); got != want {
		t.Fatal("the selector's next round rewrote a cloned outcome")
	}

	if allocs := testing.AllocsPerRun(50, func() { cloneSink = kept.Clone() }); allocs != 3 {
		t.Fatalf("Clone of a K=%d outcome: %v allocs, want 3 (winners, qualities, scores)", len(kept.Winners), allocs)
	}

	// Capacity-clipped: an append to winner 0's qualities reallocates
	// instead of overwriting winner 1's first quality.
	next := kept.Winners[1].Bid.Qualities[0]
	q0 := kept.Winners[0].Bid.Qualities
	if cap(q0) != len(q0) {
		t.Fatalf("winner 0 qualities: cap %d > len %d", cap(q0), len(q0))
	}
	_ = append(q0, -1)
	if kept.Winners[1].Bid.Qualities[0] != next {
		t.Fatal("appending to one winner's qualities overwrote its neighbour's")
	}

	// Nil-ness survives: ψ-FMore's zero-eligible outcome keeps nil Winners,
	// a zero outcome stays zero, a nil quality vector stays nil.
	for _, o := range []Outcome{
		{},
		{Scores: []float64{1, 2}},
		{Winners: []Winner{}, Scores: []float64{}},
		{Winners: []Winner{{Bid: Bid{NodeID: 1}}, {Bid: Bid{NodeID: 2, Qualities: []float64{0.5}}}}},
	} {
		if got := o.Clone(); !reflect.DeepEqual(got, o) {
			t.Fatalf("Clone(%+v) = %+v", o, got)
		}
	}
}

var cloneSink Outcome

// TestSelectorZeroAllocSteadyState locks in the acceptance criterion: once
// the buffers are warm, one Select on the deterministic top-K path performs
// zero allocations.
func TestSelectorZeroAllocSteadyState(t *testing.T) {
	rule := selTestRule(t)
	bids := selTestBids(512, 9)
	var sel Selector
	rng := rand.New(rand.NewSource(1))
	req := SelectionRequest{Rule: rule, Bids: bids, K: 8, Payment: SecondPrice}
	if _, err := sel.Select(req, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sel.Select(req, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Select allocates %v objects per run, want 0", allocs)
	}

	// The ψ walk shares the pooled buffers too.
	req.Psi = 0.5
	if _, err := sel.Select(req, rng); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := sel.Select(req, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state psi Select allocates %v objects per run, want 0", allocs)
	}
}

// TestSelectRequestValidation covers the new-API combination checks the
// legacy wrappers can never reach.
func TestSelectRequestValidation(t *testing.T) {
	rule := selTestRule(t)
	bids := selTestBids(4, 1)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		req  SelectionRequest
		want string
	}{
		{"k", SelectionRequest{Rule: rule, Bids: bids}, "K must be >= 1"},
		{"psi", SelectionRequest{Rule: rule, Bids: bids, K: 2, Psi: 1.5}, "psi must be in (0, 1]"},
		{"no bids", SelectionRequest{Rule: rule, K: 2}, "no bids"},
	}
	for _, tc := range cases {
		if _, err := Select(tc.req, rng); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestSelectOwnsItsMemory verifies the package-level Select decouples from
// both the throwaway selector and the caller's bid slate.
func TestSelectOwnsItsMemory(t *testing.T) {
	rule := selTestRule(t)
	bids := selTestBids(16, 5)
	out, err := Select(SelectionRequest{Rule: rule, Bids: bids, K: 4}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	winner0 := out.Winners[0].Bid.NodeID
	q0 := out.Winners[0].Bid.Qualities[0]
	bids[winner0].Qualities[0] = -99 // caller mutates its slate afterwards
	if out.Winners[0].Bid.Qualities[0] != q0 {
		t.Fatal("Select outcome must not alias the caller's bid qualities")
	}
}
