package auction

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fmore/internal/numeric"
)

// The three functions below are a frozen copy of the rule families' Value
// methods as they stood before the scoring kernel existed: one math.Pow per
// Cobb–Douglas factor, nothing special-cased. Every score the package
// produces — Value, Score, ScoreBids, Selector.Select with nil Scores — must
// equal them bit for bit, because persisted outcomes and seeded replays were
// written with them. Do not modernize this code.

func refAdditiveValue(alpha, q []float64) float64 {
	s := 0.0
	for i := range alpha {
		s += alpha[i] * q[i]
	}
	return s
}

func refLeontiefValue(alpha, q []float64) float64 {
	m := math.Inf(1)
	for i := range alpha {
		if v := alpha[i] * q[i]; v < m {
			m = v
		}
	}
	return m
}

func refCobbDouglasValue(scale float64, exponents, q []float64) float64 {
	v := scale
	for i := range exponents {
		qi := q[i]
		if qi < 0 {
			qi = 0
		}
		v *= math.Pow(qi, exponents[i])
	}
	return v
}

// refValue evaluates rule through the frozen copies; a Normalized rule
// normalizes into a fresh slice first, as its Value used to.
func refValue(rule ScoringRule, q []float64) float64 {
	switch r := rule.(type) {
	case Additive:
		return refAdditiveValue(r.Alpha, q)
	case Leontief:
		return refLeontiefValue(r.Alpha, q)
	case CobbDouglas:
		return refCobbDouglasValue(r.Scale, r.Exponents, q)
	case Normalized:
		norm := make([]float64, len(q))
		for i := range q {
			norm[i] = numeric.MinMaxNormalize(q[i], r.Lo[i], r.Hi[i])
		}
		return refValue(r.Rule, norm)
	}
	panic(fmt.Sprintf("no frozen reference for %T", rule))
}

// hostileQualities are the inputs where a shortcut around math.Pow is most
// likely to differ from it: both zeros, one, the denormal range, the
// overflow edge, and negatives (clamped by Cobb–Douglas).
var hostileQualities = []float64{
	0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-300,
	math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 2, 1e300, math.MaxFloat64, -1, -1e-300, -math.MaxFloat64,
}

// nonFinite are the values validation rejects; Value itself must still agree
// with the reference on them, since it does not validate.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// kernelExponent draws a Cobb–Douglas exponent from every class powFactor
// distinguishes, edges included.
func kernelExponent(r *rand.Rand) float64 {
	switch r.Intn(9) {
	case 0:
		return 1
	case 1:
		return 0.5
	case 2:
		return 0.5 * r.Float64() // (0, 0.5)
	case 3:
		return 0.5 + 0.5*r.Float64() // (0.5, 1)
	case 4:
		return 1 + 4*r.Float64() // > 1
	case 5:
		return float64(2 + r.Intn(4)) // integers above 1
	case 6:
		return math.Nextafter(0.5, 0)
	case 7:
		return math.Nextafter(0.5, 1)
	default:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(3))
	}
}

func kernelQuality(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return hostileQualities[r.Intn(len(hostileQualities))]
	case 1:
		return math.Float64frombits(r.Uint64() &^ (1 << 63) % (0x7FF << 52)) // any finite non-negative bit pattern
	case 2:
		return math.Exp(r.NormFloat64() * 50)
	default:
		return r.Float64()
	}
}

// kernelRules draws one rule of each family over dims dimensions, plus the
// Cobb–Douglas rule behind a normalizer.
func kernelRules(t testing.TB, r *rand.Rand, dims int) []ScoringRule {
	t.Helper()
	alpha, exps, lo, hi := make([]float64, dims), make([]float64, dims), make([]float64, dims), make([]float64, dims)
	for i := range alpha {
		alpha[i] = 0.05 + r.Float64()
		exps[i] = kernelExponent(r)
		lo[i] = -r.Float64()
		hi[i] = 1 + r.Float64()
	}
	additive, err := NewAdditive(alpha...)
	if err != nil {
		t.Fatal(err)
	}
	leontief, err := NewLeontief(alpha...)
	if err != nil {
		t.Fatal(err)
	}
	cobbDouglas, err := NewCobbDouglas(0.5+2*r.Float64(), exps...)
	if err != nil {
		t.Fatal(err)
	}
	normalized, err := NewNormalized(cobbDouglas, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return []ScoringRule{additive, leontief, cobbDouglas, normalized}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernelAgainstReference requires every way the package evaluates
// S(q, p) on a slate of valid bids to produce the frozen reference's bits.
func checkKernelAgainstReference(t testing.TB, rule ScoringRule, bids []Bid) {
	t.Helper()
	batch := make([]float64, len(bids))
	if err := ScoreBids(rule, bids, batch); err != nil {
		t.Fatalf("%s: ScoreBids: %v", rule.Name(), err)
	}
	var sel Selector
	out, err := sel.Select(SelectionRequest{Rule: rule, Bids: bids, K: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("%s: Select: %v", rule.Name(), err)
	}
	for i, b := range bids {
		wantValue := refValue(rule, b.Qualities)
		want := wantValue - b.Payment
		if got := rule.Value(b.Qualities); !sameBits(got, wantValue) {
			t.Fatalf("%s %+v: Value(%v) = %x, reference %x", rule.Name(), rule, b.Qualities, math.Float64bits(got), math.Float64bits(wantValue))
		}
		single, err := Score(rule, b.Qualities, b.Payment)
		if err != nil {
			t.Fatalf("%s: Score: %v", rule.Name(), err)
		}
		for name, got := range map[string]float64{"Score": single, "ScoreBids": batch[i], "Select": out.Scores[i]} {
			if !sameBits(got, want) {
				t.Fatalf("%s %+v: %s(%v, %v) = %x, reference %x", rule.Name(), rule, name, b.Qualities, b.Payment, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestScoreKernelBitIdentical is the kernel's property test: random rules
// of every family over 1–6 dimensions, exponents from every class the
// Cobb–Douglas factor distinguishes, qualities random and hostile.
func TestScoreKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(20261004))
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for iter := 0; iter < iters; iter++ {
		dims := 1 + r.Intn(6)
		bids := make([]Bid, 1+r.Intn(40))
		for i := range bids {
			q := make([]float64, dims)
			for d := range q {
				q[d] = kernelQuality(r)
			}
			bids[i] = Bid{NodeID: i, Qualities: q, Payment: r.Float64()}
		}
		for _, rule := range kernelRules(t, r, dims) {
			checkKernelAgainstReference(t, rule, bids)
		}
	}
}

// TestPowFactorMatchesPow sweeps the factor itself over the full grid of
// hostile bases and exponent classes, non-finite bases included (Value does
// not validate), and a random sample of each fast-path class.
func TestPowFactorMatchesPow(t *testing.T) {
	exponents := []float64{
		1, 0.5, 0.3, 0.2, 0.25, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.SmallestNonzeroFloat64,
		1e-300, 0.75, math.Nextafter(1, 0), math.Nextafter(1, 2), 2, 3, 2.5, 1e300,
	}
	for _, e := range exponents {
		for _, q := range append(append([]float64(nil), hostileQualities...), nonFinite...) {
			if got, want := powFactor(q, e), math.Pow(q, e); !sameBits(got, want) {
				t.Errorf("powFactor(%v, %v) = %x, math.Pow %x", q, e, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	r := rand.New(rand.NewSource(7))
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		q, e := kernelQuality(r), kernelExponent(r)
		if got, want := powFactor(q, e), math.Pow(q, e); !sameBits(got, want) {
			t.Fatalf("powFactor(%v, %v) = %x, math.Pow %x", q, e, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// FuzzScoreKernel lets the fuzzer pick the rule family, its coefficients
// and one three-dimensional bid; whatever the constructors accept must
// score to the frozen reference's bits on every path (Value, Score,
// ScoreBids, Select): logged outcomes and seeded replays were written with
// those bits.
func FuzzScoreKernel(f *testing.F) {
	f.Add(uint8(2), 2.0, 0.5, 0.3, 0.2, 0.7, 0.4, 0.9, 0.1)
	f.Add(uint8(2), 25.0, 1.0, 1.0, 0.49999999999999994, 0.0, 1.0, math.MaxFloat64, 0.0)
	f.Add(uint8(2), 1.0, 0.5000000000000001, 2.5, 3.0, math.SmallestNonzeroFloat64, -1.0, 1e-300, 0.0)
	f.Add(uint8(0), 1.0, 0.4, 0.3, 0.3, 0.5, 0.25, 0.125, 0.2)
	f.Add(uint8(1), 1.0, 0.5, 0.5, 0.5, 0.75, 0.8421, 0.0, 0.3)
	f.Add(uint8(3), 2.0, 0.5, 0.3, 0.2, 0.7, 0.4, 0.9, 0.1)
	f.Fuzz(func(t *testing.T, kind uint8, scale, c1, c2, c3, q1, q2, q3, p float64) {
		var (
			rule ScoringRule
			err  error
		)
		switch kind % 4 {
		case 0:
			rule, err = NewAdditive(c1, c2, c3)
		case 1:
			rule, err = NewLeontief(c1, c2, c3)
		default:
			rule, err = NewCobbDouglas(scale, c1, c2, c3)
		}
		if err == nil && kind%4 == 3 {
			rule, err = NewNormalized(rule, []float64{0, -1, 0.25}, []float64{1, 1, 4})
		}
		if err != nil {
			t.Skip() // coefficients the constructors refuse
		}
		bid := Bid{Qualities: []float64{q1, q2, q3}, Payment: p}
		if bid.Validate(3) != nil {
			// Validation rejects it everywhere; Value alone must still agree.
			if got, want := rule.Value(bid.Qualities), refValue(rule, bid.Qualities); !sameBits(got, want) {
				t.Fatalf("%+v: Value(%v) = %x, reference %x", rule, bid.Qualities, math.Float64bits(got), math.Float64bits(want))
			}
			return
		}
		checkKernelAgainstReference(t, rule, []Bid{bid})
	})
}

// TestScoreBidsReportsWhatScoreReports pins the batch kernel's validation:
// the error is Score's error for the first invalid bid, bids before it are
// scored, and how the slate is cut into chunks does not change a score.
func TestScoreBidsReportsWhatScoreReports(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, rule := range kernelRules(t, r, 2) {
		bids := make([]Bid, 40)
		for i := range bids {
			bids[i] = Bid{NodeID: i, Qualities: []float64{r.Float64(), r.Float64()}, Payment: r.Float64()}
		}
		whole := make([]float64, len(bids))
		if err := ScoreBids(rule, bids, whole); err != nil {
			t.Fatal(err)
		}
		cut := make([]float64, len(bids))
		for off := 0; off < len(bids); off += 7 {
			end := min(off+7, len(bids))
			if err := ScoreBids(rule, bids[off:end], cut[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(whole, cut) {
			t.Errorf("%s: scores depend on the chunking", rule.Name())
		}
		for _, bad := range [][]float64{{0.5}, {0.5, 0.5, 0.5}, nil, {math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.Inf(-1), 0.5}} {
			poisoned := append([]Bid(nil), bids...)
			poisoned[23].Qualities = bad
			poisoned[31].Qualities = []float64{math.NaN(), math.NaN()} // a later one must not win the report
			got := make([]float64, len(bids))
			err := ScoreBids(rule, poisoned, got)
			_, want := Score(rule, bad, poisoned[23].Payment)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%s qualities %v: ScoreBids reports %v, Score %v", rule.Name(), bad, err, want)
			}
			if !reflect.DeepEqual(got[:23], whole[:23]) {
				t.Errorf("%s qualities %v: the bids before the invalid one were not scored", rule.Name(), bad)
			}
		}
		// A non-finite payment is not Score's business, nor the kernel's.
		poisoned := append([]Bid(nil), bids...)
		poisoned[5].Payment = math.NaN()
		if err := ScoreBids(rule, poisoned, make([]float64, len(bids))); err != nil {
			t.Errorf("%s: ScoreBids rejected a payment Score accepts: %v", rule.Name(), err)
		}
	}
}

// TestSelectInvalidBidMatchesReference pins what Select does with an invalid
// bid anywhere in the slate: the frozen pipeline's error text and its rng position (one draw per bid before the
// offender), which a failed round's log record carries.
func TestSelectInvalidBidMatchesReference(t *testing.T) {
	rule, err := NewCobbDouglas(2, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	clean := make([]Bid, 30)
	for i := range clean {
		clean[i] = Bid{NodeID: 100 + i, Qualities: []float64{r.Float64(), r.Float64()}, Payment: r.Float64() / 4}
	}
	poison := map[string]func(b *Bid){
		"short":       func(b *Bid) { b.Qualities = b.Qualities[:1] },
		"nan-quality": func(b *Bid) { b.Qualities = []float64{0.5, math.NaN()} },
		"inf-quality": func(b *Bid) { b.Qualities = []float64{math.Inf(1), 0.5} },
		"nan-payment": func(b *Bid) { b.Payment = math.NaN() },
		"inf-payment": func(b *Bid) { b.Payment = math.Inf(-1) },
	}
	for name, apply := range poison {
		for _, at := range [][]int{{0}, {17}, {29}, {12, 4}, {4, 12}} {
			bids := append([]Bid(nil), clean...)
			apply(&bids[at[0]])
			if len(at) > 1 { // a second, different defect elsewhere: the earlier bid must win the report
				bids[at[1]].Payment = math.Inf(1)
			}
			runEquiv(t, fmt.Sprintf("%s at %v", name, at), 77,
				func(rng *rand.Rand) (Outcome, error) {
					return Select(SelectionRequest{Rule: rule, Bids: bids, K: 5, Payment: SecondPrice}, rng)
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refDetermineWinners(rule, bids, nil, 5, SecondPrice, rng)
				})
		}
	}
}

// TestNormalizedValueDoesNotAllocate pins the normalizer's stack scratch: no
// allocation per evaluation up to normStack dimensions over any built-in
// family, and the same value on the heap path past it.
func TestNormalizedValueDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, dims := range []int{1, 3, normStack, normStack + 1} {
		q := make([]float64, dims)
		for i := range q {
			q[i] = r.Float64()
		}
		for _, inner := range kernelRules(t, r, dims)[:3] {
			lo, hi := make([]float64, dims), make([]float64, dims)
			for i := range lo {
				lo[i], hi[i] = -0.5, 1.5
			}
			rule, err := NewNormalized(inner, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rule.Value(q), refValue(rule, q); !sameBits(got, want) {
				t.Errorf("%s dims=%d: Value = %v, reference %v", rule.Name(), dims, got, want)
			}
			if dims > normStack {
				continue
			}
			var boxed ScoringRule = rule // as the exchange holds it
			if allocs := testing.AllocsPerRun(100, func() { boxed.Value(q) }); allocs != 0 {
				t.Errorf("%s dims=%d: %v allocations per Value", rule.Name(), dims, allocs)
			}
			bids := []Bid{{Qualities: q, Payment: 0.1}, {Qualities: q, Payment: 0.2}}
			scores := make([]float64, len(bids))
			if allocs := testing.AllocsPerRun(100, func() { _ = ScoreBids(boxed, bids, scores) }); allocs != 0 {
				t.Errorf("%s dims=%d: %v allocations per ScoreBids", rule.Name(), dims, allocs)
			}
		}
	}
}

// selectWithScores runs Select's rank, select and pay stages over scores the
// test supplies instead of the rule's — the seam between the score stage's
// two halves (evaluate; check payments and draw) — so slates of exact ties,
// −Inf and NaN scores, which no rule produces on demand, still reach the
// top-K heap and the ψ walk. The bids must be valid.
func selectWithScores(req SelectionRequest, scores []float64, rng *rand.Rand) (Outcome, error) {
	var s Selector
	s.scores = append([]float64(nil), scores...)
	if err := s.draw(req, len(req.Bids), rng); err != nil {
		return Outcome{}, err
	}
	var out Outcome
	var err error
	if req.Psi > 0 && req.Psi < 1 {
		out, err = s.selectPsi(req, func(int) float64 { return req.Psi }, rng)
	} else {
		out, err = s.selectTopK(req)
	}
	if err != nil {
		return Outcome{}, err
	}
	return out.Clone(), nil
}

// frozenTopK is the bounded-heap top-K loop as it stood before the
// score-first skip: every bid's record is built and compared in full. It
// shares the Selector's comparison and heap helpers, which the skip did not
// touch, and must be called after the score stage.
func frozenTopK(s *Selector, req SelectionRequest) Outcome {
	k := min(req.K, len(req.Bids))
	h := make([]scoredBid, 0, k)
	var excl scoredBid
	haveExcl := false
	for i := range req.Bids {
		e := scoredBid{bid: req.Bids[i], score: s.scores[i], pos: i}
		if len(h) < k {
			h = append(h, e)
			s.siftUp(h, len(h)-1)
			continue
		}
		if s.better(e, h[0]) {
			if !haveExcl || s.better(h[0], excl) {
				excl = h[0]
				haveExcl = true
			}
			h[0] = e
			s.siftDown(h, 0)
		} else if !haveExcl || s.better(e, excl) {
			excl = e
			haveExcl = true
		}
	}
	s.sortDescending(h)
	selected := h
	for i := range h {
		if h[i].score < 0 {
			selected = h[:i]
			break
		}
	}
	refScore, hasRef := 0.0, false
	switch {
	case len(selected) < len(h):
		refScore, hasRef = h[len(selected)].score, true
	case haveExcl:
		refScore, hasRef = excl.score, true
	}
	return s.outcome(req, selected, refScore, hasRef).Clone()
}

// sameOutcomeBits compares two outcomes float by float on their bit
// patterns, so NaN equals NaN and −0 differs from +0.
func sameOutcomeBits(a, b Outcome) bool {
	if len(a.Winners) != len(b.Winners) || len(a.Scores) != len(b.Scores) || !sameBits(a.AggregatorProfit, b.AggregatorProfit) {
		return false
	}
	for i, w := range a.Winners {
		v := b.Winners[i]
		if w.Bid.NodeID != v.Bid.NodeID || !sameBits(w.Score, v.Score) || !sameBits(w.Payment, v.Payment) {
			return false
		}
	}
	for i := range a.Scores {
		if !sameBits(a.Scores[i], b.Scores[i]) {
			return false
		}
	}
	return true
}

// TestTopKScoreFirstSkipUnderTies pins the score-first skip where it could
// go wrong: slates whose scores come from a handful of values, so the K-th
// place is decided by the coin-flip key almost every time, with −Inf scores
// mixed in — against the frozen full sort — and with NaN scores, which no
// sort orders consistently, against the frozen heap loop the skip was added
// to.
func TestTopKScoreFirstSkipUnderTies(t *testing.T) {
	rule, err := NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(64))
	levels := []float64{0.75, 0.5, 0.5, 0.5, 0.25, 0.25, 0, math.Copysign(0, -1), -0.5, math.Inf(-1)}
	for iter := 0; iter < 120; iter++ {
		n := []int{5, 70, 300, 2000}[iter%4]
		k := []int{1, 2, 8, 64}[gen.Intn(4)]
		bids := make([]Bid, n)
		scores := make([]float64, n)
		withNaN := make([]float64, n)
		for i := range bids {
			bids[i] = Bid{NodeID: i, Qualities: []float64{gen.Float64(), gen.Float64()}, Payment: gen.Float64() / 4}
			scores[i] = levels[gen.Intn(len(levels))]
			withNaN[i] = scores[i]
			if gen.Intn(7) == 0 {
				withNaN[i] = math.NaN()
			}
		}
		seed := gen.Int63()
		for _, payment := range []PaymentRule{FirstPrice, SecondPrice} {
			req := SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: payment}
			runEquiv(t, fmt.Sprintf("iter=%d n=%d k=%d pay=%v ties", iter, n, k, payment), seed,
				func(rng *rand.Rand) (Outcome, error) { return selectWithScores(req, scores, rng) },
				func(rng *rand.Rand) (Outcome, error) {
					return refDetermineWinners(rule, bids, scores, k, payment, rng)
				})

			// reflect.DeepEqual cannot compare outcomes holding NaN.
			srcNew, srcOld := newEquivSource(seed), newEquivSource(seed)
			got, err := selectWithScores(req, withNaN, rand.New(srcNew))
			if err != nil {
				t.Fatal(err)
			}
			var s Selector
			s.scores = append([]float64(nil), withNaN...)
			if err := s.draw(req, n, rand.New(srcOld)); err != nil {
				t.Fatal(err)
			}
			if want := frozenTopK(&s, req); !sameOutcomeBits(got, want) || srcNew.n != srcOld.n {
				t.Fatalf("iter=%d n=%d k=%d pay=%v with NaN scores:\nnew: %+v\nold: %+v", iter, n, k, payment, got, want)
			}
		}
	}
}
