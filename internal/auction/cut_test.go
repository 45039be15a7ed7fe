package auction

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// cutSizes are slates on both sides of the scorer's cut: the largest scored
// inline whatever GOMAXPROCS says, the smallest cut in two, one whose spans
// cannot be equal, and the mega_round slate.
var cutSizes = []int{2*spanMinBids - 1, 2 * spanMinBids, 4*spanMinBids + 1, 16384}

// cutProcs are the GOMAXPROCS settings the cut is pinned at: inline, two
// spans, a span count that divides no slate size evenly, and more spans
// than the test host may have CPUs.
var cutProcs = []int{1, 2, 3, 8}

// withProcs runs fn at each of cutProcs and restores GOMAXPROCS.
func withProcs(t *testing.T, fn func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range cutProcs {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestScoreCutBitIdentical pins the one scorer on both sides of its cut:
// ScoreBids and Selector.Select produce the frozen reference's bits, the
// frozen pipeline's outcome and its rng draw count however many spans the
// slate was scored in.
func TestScoreCutBitIdentical(t *testing.T) {
	gen := rand.New(rand.NewSource(23))
	rules := kernelRules(t, gen, 3)
	var pooled Selector
	for _, n := range cutSizes {
		bids := megaSlate(n)
		for _, rule := range rules {
			wantScores := make([]float64, n)
			for i, b := range bids {
				wantScores[i] = refValue(rule, b.Qualities) - b.Payment
			}
			srcRef := newEquivSource(5)
			want, err := refDetermineWinners(rule, bids, nil, 64, SecondPrice, rand.New(srcRef))
			if err != nil {
				t.Fatal(err)
			}
			withProcs(t, func(procs int) {
				tag := fmt.Sprintf("%s n=%d procs=%d", rule.Name(), n, procs)
				scores := make([]float64, n)
				if err := ScoreBids(rule, bids, scores); err != nil {
					t.Fatalf("%s: ScoreBids: %v", tag, err)
				}
				src := newEquivSource(5)
				got, err := pooled.Select(SelectionRequest{Rule: rule, Bids: bids, K: 64, Payment: SecondPrice}, rand.New(src))
				if err != nil {
					t.Fatalf("%s: Select: %v", tag, err)
				}
				for i, w := range wantScores {
					if !sameBits(scores[i], w) || !sameBits(got.Scores[i], w) {
						t.Fatalf("%s: score %d: ScoreBids %x, Select %x, reference %x", tag, i,
							math.Float64bits(scores[i]), math.Float64bits(got.Scores[i]), math.Float64bits(w))
					}
				}
				if !reflect.DeepEqual(got.Clone(), want) {
					t.Fatalf("%s: outcome differs from the frozen pipeline's", tag)
				}
				if src.n != srcRef.n {
					t.Fatalf("%s: %d rng draws, frozen pipeline %d", tag, src.n, srcRef.n)
				}
			})
		}
	}
}

// TestScoreCutFirstInvalidBid pins what a cut slate reports: the first
// invalid bid of the whole slate — whichever span met it, whether its defect
// is a quality the scorer stops at or a payment the draw loop does, and
// whatever later spans found — with the frozen pipeline's error text after
// the frozen pipeline's number of draws. The spans share only the join
// that collects that bid, so a mistake there is a data race or a report
// that depends on which span finished last. The four rule kinds (each has its
// own loop in scorePrefix) take turns over the cases.
func TestScoreCutFirstInvalidBid(t *testing.T) {
	gen := rand.New(rand.NewSource(29))
	rules := kernelRules(t, gen, 3)
	badQuality := func(b *Bid) { b.Qualities = []float64{0.5, math.NaN(), 0.5} }
	badLength := func(b *Bid) { b.Qualities = b.Qualities[:1] }
	badPayment := func(b *Bid) { b.Payment = math.Inf(1) }
	type defect struct {
		at    int
		apply func(*Bid)
	}
	var pooled Selector
	turn := 0
	for _, n := range cutSizes {
		clean := megaSlate(n)
		scratch := make([]float64, n)
		withProcs(t, func(procs int) {
			spans := max(1, min(n/spanMinBids, procs))
			var cases [][]defect
			for s := 0; s < spans; s++ {
				lo, hi := s*n/spans, (s+1)*n/spans
				// One defect per span: at its first bid, inside it, at its last.
				cases = append(cases,
					[]defect{{lo, badQuality}},
					[]defect{{lo + gen.Intn(hi-lo), badLength}},
					[]defect{{hi - 1, badPayment}})
				// Two in different spans, the later one of another kind.
				if s+1 < spans {
					later := hi + gen.Intn(n-hi)
					cases = append(cases,
						[]defect{{lo + gen.Intn(hi-lo), badQuality}, {later, badPayment}},
						[]defect{{lo + gen.Intn(hi-lo), badPayment}, {later, badQuality}},
						[]defect{{hi - 1, badLength}, {hi, badQuality}})
				}
			}
			for _, c := range cases {
				rule := rules[turn%len(rules)]
				turn++
				bids := append([]Bid(nil), clean...)
				tag := fmt.Sprintf("%s n=%d procs=%d defects at", rule.Name(), n, procs)
				firstQuality := n // ScoreBids sees quality defects only
				for _, d := range c {
					d.apply(&bids[d.at])
					tag += fmt.Sprint(" ", d.at)
					if CheckDims(3, bids[d.at].Qualities) != nil {
						firstQuality = min(firstQuality, d.at)
					}
				}
				runEquiv(t, tag, 7,
					func(rng *rand.Rand) (Outcome, error) {
						return pooled.Select(SelectionRequest{Rule: rule, Bids: bids, K: 8, Payment: SecondPrice}, rng)
					},
					func(rng *rand.Rand) (Outcome, error) {
						return refDetermineWinners(rule, bids, nil, 8, SecondPrice, rng)
					})
				err := ScoreBids(rule, bids, scratch)
				if firstQuality == n {
					if err != nil {
						t.Fatalf("%s: ScoreBids rejected a payment Score accepts: %v", tag, err)
					}
					continue
				}
				_, want := Score(rule, bids[firstQuality].Qualities, bids[firstQuality].Payment)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("%s: ScoreBids reports %v, Score of bid %d %v", tag, err, firstQuality, want)
				}
			}
		})
	}
}
