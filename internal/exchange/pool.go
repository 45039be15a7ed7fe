package exchange

import (
	"runtime"
	"sync"

	"fmore/internal/auction"
)

// defaultScoreChunk is the number of bids per pool task. Large enough that
// channel hand-off cost is amortized, small enough that a 64-bid round still
// parallelizes when several jobs close at once.
const defaultScoreChunk = 128

// batchState tracks one in-flight scoring batch. Jobs keep their batchState
// across rounds, so the steady-state scoring path performs no allocation.
type batchState struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

func (b *batchState) reset() {
	b.mu.Lock()
	b.err = nil
	b.mu.Unlock()
}

func (b *batchState) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *batchState) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// scoreTask is one contiguous chunk of a round's bid slice to score.
type scoreTask struct {
	rule   auction.ScoringRule
	bids   []auction.Bid
	scores []float64
	batch  *batchState
}

// scorePool evaluates S(q, p) for bid batches on a fixed set of workers,
// shared by every job of the exchange so scoring load from concurrent round
// closes is batched across jobs rather than spawning per-round goroutines.
// Each task is one call of the auction package's batch kernel
// (auction.ScoreBids), which checks every quality vector as auction.Score
// would and resolves the rule kind once per chunk.
type scorePool struct {
	tasks chan scoreTask
	wg    sync.WaitGroup
	chunk int
}

func newScorePool(workers, chunk int) *scorePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &scorePool{
		// 4 slots per worker of task backlog: enough that a burst of round
		// closes never blocks the submitter on a full channel for long.
		tasks: make(chan scoreTask, 4*workers),
		chunk: chunk,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *scorePool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		if err := auction.ScoreBids(t.rule, t.bids, t.scores); err != nil {
			t.batch.fail(err)
		}
		t.batch.wg.Done()
	}
}

// score fills scores[i] = S(bids[i]) using the pool, blocking until the
// whole batch is done. scores must have len(bids) entries; batch is the
// caller's reusable completion tracker. On a scoring error, the first error
// is returned and the remaining entries of that chunk are undefined.
//
// Slates of at most one chunk are scored inline on the calling goroutine: a
// single-chunk batch is one pool task executed serially by one worker
// anyway, so the hand-off buys no parallelism — only channel transfer and a
// worker wakeup (BenchmarkScorePool_SmallSlate measures the gap). The score
// values, their order, and the round's rng draw sequence are identical on
// both paths (TestScoreInlineEquivalence).
func (p *scorePool) score(rule auction.ScoringRule, bids []auction.Bid, scores []float64, batch *batchState) error {
	if len(bids) <= p.chunk {
		return auction.ScoreBids(rule, bids, scores)
	}
	batch.reset()
	for off := 0; off < len(bids); off += p.chunk {
		end := off + p.chunk
		if end > len(bids) {
			end = len(bids)
		}
		batch.wg.Add(1)
		p.tasks <- scoreTask{rule: rule, bids: bids[off:end], scores: scores[off:end], batch: batch}
	}
	batch.wg.Wait()
	return batch.firstErr()
}

// close drains the pool; score must not be called afterwards.
func (p *scorePool) close() {
	close(p.tasks)
	p.wg.Wait()
}
