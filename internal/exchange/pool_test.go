package exchange

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fmore/internal/auction"
)

func TestScorePoolMatchesInlineScoring(t *testing.T) {
	rule, err := auction.NewAdditive(0.4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	p := newScorePool(4, 16) // small chunk: force multi-task batches
	defer p.close()

	rng := rand.New(rand.NewSource(3))
	bids := make([]auction.Bid, 301) // deliberately not a chunk multiple
	for i := range bids {
		bids[i] = auction.Bid{
			NodeID:    i,
			Qualities: []float64{rng.Float64(), rng.Float64()},
			Payment:   rng.Float64() * 0.3,
		}
	}
	scores := make([]float64, len(bids))
	var batch batchState
	if err := p.score(rule, bids, scores, &batch); err != nil {
		t.Fatal(err)
	}
	for i, b := range bids {
		want, err := auction.Score(rule, b.Qualities, b.Payment)
		if err != nil {
			t.Fatal(err)
		}
		if scores[i] != want {
			t.Fatalf("scores[%d] = %v, want %v", i, scores[i], want)
		}
	}
}

func TestScorePoolPropagatesErrors(t *testing.T) {
	rule, err := auction.NewAdditive(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := newScorePool(2, 8)
	defer p.close()

	bids := make([]auction.Bid, 20)
	for i := range bids {
		bids[i] = auction.Bid{NodeID: i, Qualities: []float64{0.5, 0.5}, Payment: 0.1}
	}
	bids[13].Qualities = []float64{math.NaN(), 0.5}
	scores := make([]float64, len(bids))
	var batch batchState
	if err := p.score(rule, bids, scores, &batch); err == nil {
		t.Fatal("NaN quality scored without error")
	}
	// The batch state must be reusable after a failure.
	bids[13].Qualities = []float64{0.5, 0.5}
	if err := p.score(rule, bids, scores, &batch); err != nil {
		t.Fatalf("reused batch after failure: %v", err)
	}
}

// TestScoreInlineEquivalence pins the inline fast path: a slate scored
// inline (N <= chunk) is identical — values and order — to the same slate
// forced through the worker hand-off, and a full round produces
// byte-identical outcomes under either chunk setting (scoring draws nothing
// from the round rng, so the draw sequence cannot diverge).
func TestScoreInlineEquivalence(t *testing.T) {
	rule, err := auction.NewAdditive(0.4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	bids := testBids(2, 1, 100)
	inlinePool := newScorePool(4, 128) // N <= chunk: inline path
	defer inlinePool.close()
	handoffPool := newScorePool(4, 7) // N > chunk: pooled path, odd chunk
	defer handoffPool.close()

	inlineScores := make([]float64, len(bids))
	pooledScores := make([]float64, len(bids))
	var batch batchState
	if err := inlinePool.score(rule, bids, inlineScores, &batch); err != nil {
		t.Fatal(err)
	}
	if err := handoffPool.score(rule, bids, pooledScores, &batch); err != nil {
		t.Fatal(err)
	}
	for i := range inlineScores {
		if inlineScores[i] != pooledScores[i] {
			t.Fatalf("scores[%d]: inline %v != pooled %v", i, inlineScores[i], pooledScores[i])
		}
	}

	// Errors surface identically on the inline path.
	bad := testBids(2, 1, 10)
	bad[3].Qualities = []float64{math.NaN(), 0.5}
	if err := inlinePool.score(rule, bad, make([]float64, len(bad)), &batch); err == nil {
		t.Fatal("inline path scored a NaN quality without error")
	}

	// Whole-round equivalence: same seed, same bids, chunk sizes on either
	// side of the slate size — identical outcomes.
	outcome := func(chunk int) RoundOutcome {
		t.Helper()
		ex := New(Options{})
		defer ex.Close()
		ex.pool.chunk = chunk // read by score only; nothing has closed yet
		if _, err := ex.CreateJob(JobSpec{ID: "eq", Auction: auction.Config{Rule: rule, K: 3}, Seed: 11}); err != nil {
			t.Fatal(err)
		}
		for _, b := range testBids(2, 1, 24) {
			if _, err := ex.SubmitBid("eq", b); err != nil {
				t.Fatal(err)
			}
		}
		ro, err := ex.CloseRound("eq")
		if err != nil {
			t.Fatal(err)
		}
		return ro
	}
	inlineRO, pooledRO := outcome(128), outcome(5)
	if !reflect.DeepEqual(inlineRO.Outcome, pooledRO.Outcome) {
		t.Fatalf("round outcome diverged:\ninline: %+v\npooled: %+v", inlineRO.Outcome, pooledRO.Outcome)
	}
}

// BenchmarkScorePool_SmallSlate is the threshold evidence for the inline
// fast path: the same N-bid slate scored inline (chunk >= N) versus through
// the worker hand-off (chunk 1 forces one task per bid; chunk N/2 a
// two-task split). Inline wins for every N up to one chunk because a
// single-chunk batch is serial either way — the pooled variant only adds
// channel transfer, a worker wakeup, and the batch wait.
func BenchmarkScorePool_SmallSlate(b *testing.B) {
	rule, err := auction.NewAdditive(0.4, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 8, 32, 128} {
		bids := testBids(1, 1, n)
		scores := make([]float64, n)
		b.Run(fmt.Sprintf("inline/n=%d", n), func(b *testing.B) {
			p := newScorePool(4, defaultScoreChunk)
			defer p.close()
			var batch batchState
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.score(rule, bids, scores, &batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("handoff/n=%d", n), func(b *testing.B) {
			// chunk n/2 (min 1) forces the channel path with a realistic
			// split instead of degenerate 1-bid tasks.
			chunk := n / 2
			if chunk < 1 {
				chunk = 1
			}
			p := newScorePool(4, chunk)
			defer p.close()
			var batch batchState
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.score(rule, bids, scores, &batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
