package auction

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file holds the seeded equivalence property test: for random slates
// (ties forced, negative scores, K above and below N, first- and
// second-price, ψ variants, precomputed and inline scores) the
// heap-based Select pipeline must produce exactly the Outcome and consume
// exactly the rng draws of the frozen full-sort reference in
// reference_test.go. This guards the exchange's WAL replay guarantee from
// PR 2: recovery fast-forwards a seeded rng by recorded draw counts, so any
// drift in draw order or outcome bytes would corrupt replayed histories.

// equivSource wraps the seeded source and counts every step, mirroring the
// exchange's countingSource, so draw-order equivalence is asserted directly.
type equivSource struct {
	src rand.Source64
	n   int64
}

func newEquivSource(seed int64) *equivSource {
	return &equivSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *equivSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *equivSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *equivSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// genEquivSlate draws a bid slate designed to stress the selection order:
// qualities and payments live on coarse discrete grids so exact score ties
// are common, and a fraction of payments exceed the maximum rule value so
// negative scores (aggregator-IR exclusions) appear throughout the ranking.
func genEquivSlate(r *rand.Rand, n int) []Bid {
	bids := make([]Bid, n)
	for i := range bids {
		pay := float64(r.Intn(8)) / 8
		if r.Intn(6) == 0 {
			pay = 1.5 + float64(r.Intn(3)) // guaranteed negative score
		}
		bids[i] = Bid{
			NodeID:    i,
			Qualities: []float64{float64(r.Intn(5)) / 4, float64(r.Intn(5)) / 4},
			Payment:   pay,
		}
	}
	// Duplicate a few bids wholesale (fresh quality slices, new node IDs) so
	// full (score, payment) ties appear even across the duplication.
	for d := 0; d < n/8; d++ {
		i, j := r.Intn(n), r.Intn(n)
		bids[i].Qualities = append([]float64(nil), bids[j].Qualities...)
		bids[i].Payment = bids[j].Payment
	}
	return bids
}

// runEquiv drives one variant through the new pipeline and the reference on
// identically seeded counting sources and requires identical outcomes,
// errors and draw counts.
func runEquiv(t *testing.T, label string, seed int64,
	newPath func(rng *rand.Rand) (Outcome, error),
	refPath func(rng *rand.Rand) (Outcome, error)) {
	t.Helper()
	srcNew, srcRef := newEquivSource(seed), newEquivSource(seed)
	gotOut, gotErr := newPath(rand.New(srcNew))
	wantOut, wantErr := refPath(rand.New(srcRef))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: new=%v ref=%v", label, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error text mismatch:\nnew: %v\nref: %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("%s: outcome mismatch:\nnew: %+v\nref: %+v", label, gotOut, wantOut)
	}
	if srcNew.n != srcRef.n {
		t.Fatalf("%s: rng draw count mismatch: new=%d ref=%d", label, srcNew.n, srcRef.n)
	}
}

// refPsi is the reference for a scalar-ψ request: Psi == 1 is plain top-K on
// the Select side, so its reference is the plain full sort, not the frozen ψ
// walk (which differs only in representing an empty winner set as nil).
func refPsi(rule ScoringRule, bids []Bid, pre []float64, k int, psi float64, payment PaymentRule, rng *rand.Rand) (Outcome, error) {
	if psi == 1 {
		return refDetermineWinners(rule, bids, pre, k, payment, rng)
	}
	return refDetermineWinnersPsi(rule, bids, pre, k, psi, payment, rng)
}

func TestSelectEquivalenceProperty(t *testing.T) {
	rule, err := NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(20260727))
	// A pooled selector lives across all iterations so buffer reuse across
	// wildly varying slate shapes is part of what the property verifies.
	var pooled Selector

	iters := 80
	if testing.Short() {
		iters = 20
	}
	for iter := 0; iter < iters; iter++ {
		var n int
		switch gen.Intn(10) {
		case 0:
			n = 1 + gen.Intn(3) // degenerate slates
		case 1:
			n = 1024 + gen.Intn(3073) // up to 4096
		default:
			n = 2 + gen.Intn(96)
		}
		k := 1 + gen.Intn(64)
		if gen.Intn(5) == 0 {
			k = n + 1 + gen.Intn(8) // K above the slate size
		}
		bids := genEquivSlate(gen, n)
		scores := make([]float64, n)
		for i, b := range bids {
			s, err := Score(rule, b.Qualities, b.Payment)
			if err != nil {
				t.Fatal(err)
			}
			scores[i] = s
		}
		psi := []float64{0.25, 0.6, 0.9, 1}[gen.Intn(4)]
		_ = gen.Float64() // unused; dropping this draw would shift every later slate
		seed := gen.Int63()

		for _, payment := range []PaymentRule{FirstPrice, SecondPrice} {
			payment := payment
			tag := fmt.Sprintf("iter=%d n=%d k=%d pay=%v", iter, n, k, payment)

			runEquiv(t, tag+" plain", seed,
				func(rng *rand.Rand) (Outcome, error) {
					return Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: payment}, rng)
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refDetermineWinners(rule, bids, nil, k, payment, rng)
				})

			runEquiv(t, tag+" scored", seed,
				func(rng *rand.Rand) (Outcome, error) {
					return selectWithScores(SelectionRequest{Rule: rule, Bids: bids, K: k, Payment: payment}, scores, rng)
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refDetermineWinners(rule, bids, scores, k, payment, rng)
				})

			runEquiv(t, tag+" pooled", seed,
				func(rng *rand.Rand) (Outcome, error) {
					out, err := pooled.Select(SelectionRequest{
						Rule: rule, Bids: bids, K: k, Payment: payment,
					}, rng)
					if err != nil {
						return Outcome{}, err
					}
					return out.Clone(), nil
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refDetermineWinners(rule, bids, nil, k, payment, rng)
				})

			runEquiv(t, fmt.Sprintf("%s psi=%v", tag, psi), seed,
				func(rng *rand.Rand) (Outcome, error) {
					return Select(SelectionRequest{Rule: rule, Bids: bids, K: k, Psi: psi, Payment: payment}, rng)
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refPsi(rule, bids, nil, k, psi, payment, rng)
				})

			runEquiv(t, fmt.Sprintf("%s psi-scored=%v", tag, psi), seed,
				func(rng *rand.Rand) (Outcome, error) {
					return selectWithScores(SelectionRequest{Rule: rule, Bids: bids, K: k, Psi: psi, Payment: payment}, scores, rng)
				},
				func(rng *rand.Rand) (Outcome, error) {
					return refPsi(rule, bids, scores, k, psi, payment, rng)
				})
		}
	}
}

// TestAuctioneerEquivalenceProperty replays multi-round seeded auctioneer
// streams — the exact shape of an exchange job — against the reference
// dispatch, which takes Score's values on every other round and evaluates
// the rule itself on the rest.
func TestAuctioneerEquivalenceProperty(t *testing.T) {
	rule, err := NewAdditive(0.6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	gen := rand.New(rand.NewSource(42))
	for _, psi := range []float64{1, 0.5} {
		for _, payment := range []PaymentRule{FirstPrice, SecondPrice} {
			cfg := Config{Rule: rule, K: 8, Payment: payment, Psi: psi}
			srcNew, srcRef := newEquivSource(7), newEquivSource(7)
			auctNew, err := NewAuctioneer(cfg, rand.New(srcNew))
			if err != nil {
				t.Fatal(err)
			}
			rngRef := rand.New(srcRef)

			for round := 0; round < 12; round++ {
				n := 1 + gen.Intn(200)
				bids := genEquivSlate(gen, n)
				scores := make([]float64, n)
				for i, b := range bids {
					s, err := Score(rule, b.Qualities, b.Payment)
					if err != nil {
						t.Fatal(err)
					}
					scores[i] = s
				}
				useScored := round%2 == 0
				got, gotErr := auctNew.Run(bids)
				var want Outcome
				var wantErr error
				if psi < 1 {
					var pre []float64
					if useScored {
						pre = scores
					}
					want, wantErr = refDetermineWinnersPsi(rule, bids, pre, cfg.K, psi, payment, rngRef)
				} else {
					var pre []float64
					if useScored {
						pre = scores
					}
					want, wantErr = refDetermineWinners(rule, bids, pre, cfg.K, payment, rngRef)
				}
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("round %d: error mismatch: %v vs %v", round, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("psi=%v pay=%v round %d: outcome mismatch:\nnew: %+v\nref: %+v", psi, payment, round, got, want)
				}
				if srcNew.n != srcRef.n {
					t.Fatalf("psi=%v pay=%v round %d: draw count %d vs %d", psi, payment, round, srcNew.n, srcRef.n)
				}
			}
		}
	}
}
