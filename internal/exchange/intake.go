package exchange

import (
	"sync"
	"sync/atomic"

	"fmore/internal/auction"
)

// maxIntakeShards caps the GOMAXPROCS-derived shard count: beyond this,
// shard-selection collisions are already rare at any realistic bidder
// concurrency and more shards only cost memory and drain work.
const maxIntakeShards = 32

// intakeShard is one stripe of a job's bid intake: an append-only buffer,
// its dedup set, and the round number the buffered bids belong to, all
// under a shard-private mutex. A node always hashes to the same shard, so
// the per-shard seen set implements the exchange-wide one-bid-per-node-
// per-round rule exactly.
type intakeShard struct {
	mu sync.Mutex
	// round is the collecting round of the buffered bids. It advances when
	// the shard is drained, so a submit racing a round close is labeled with
	// the round it actually lands in: the closing round if it got into the
	// buffer before the drain, the next round otherwise.
	round int
	bids  []auction.Bid
	seen  map[int]struct{}
	// pad rounds the shard up to two full cache lines so two bidders on
	// adjacent shards never false-share a line.
	_ [80]byte
}

// intake is a job's striped bid-ingestion front: P shards, each with its own
// lock, so concurrent bidders only serialize when they hash to the same
// stripe. pending counts buffered bids across all shards (the quorum check
// and PendingBids read it without touching any shard).
type intake struct {
	shards  []intakeShard
	mask    uint32
	pending atomic.Int64
}

// newIntake builds an intake of n stripes, rounded up to a power of two
// (the shard hash masks). Jobs size it to the machine: GOMAXPROCS, capped
// at maxIntakeShards.
func newIntake(n int) *intake {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	in := &intake{shards: make([]intakeShard, shards), mask: uint32(shards - 1)}
	for i := range in.shards {
		in.shards[i].round = 1
		in.shards[i].seen = make(map[int]struct{})
	}
	return in
}

// shard maps a node to its stripe. Fibonacci hashing spreads both dense
// (sequential IDs) and sparse node populations evenly across stripes.
func (in *intake) shard(nodeID int) *intakeShard {
	h := uint32(nodeID) * 2654435761
	return &in.shards[(h>>16)&in.mask]
}

// submit appends one bid to the node's shard. closed is the job's
// lock-free closed flag, checked under the shard lock so a submit that
// observes it unset is linearized before the close.
//
// Acceptance side effects run INSIDE the shard's critical section, which
// is what lets the WAL snapshot subtract pending bids from the counters it
// captures (see captureSnapshot) without racing half-applied submissions:
// accepted, when non-nil, is the node's accepted-bid counter (registered
// nodes — the allocation-free hot path); onAccept, when non-nil, is the
// open posture's register-and-count slow path, run once per node lifetime.
// Both sides of the lock ordering stay acyclic: submit holds one shard
// lock and may take registry locks inside it, the same shard→registry
// order the snapshot capture uses, and never waits on closeMu or ex.mu.
//
// It returns the round the bid was entered into.
func (in *intake) submit(b auction.Bid, closed *atomic.Bool, accepted *atomic.Int64, onAccept func()) (round int, err error) {
	sh := in.shard(b.NodeID)
	sh.mu.Lock()
	if closed.Load() {
		sh.mu.Unlock()
		return 0, ErrJobClosed
	}
	if _, dup := sh.seen[b.NodeID]; dup {
		sh.mu.Unlock()
		return 0, ErrDuplicateBid
	}
	sh.seen[b.NodeID] = struct{}{}
	sh.bids = append(sh.bids, b)
	round = sh.round
	in.pending.Add(1)
	if accepted != nil {
		accepted.Add(1)
	}
	if onAccept != nil {
		onAccept()
	}
	sh.mu.Unlock()
	return round, nil
}

// lockAll freezes the intake (every shard lock held) for the WAL
// snapshot's capture window; unlockAll releases it. While frozen, no bid
// can enter any buffer and — because a registered node's accepted-bid
// counter increments inside the shard's critical section — no counter can
// move either, which is what makes the snapshot's pending-bid accounting
// exact. Submitters hold at most one shard lock and never wait on anything
// the freezer holds, so the bulk acquisition cannot deadlock.
func (in *intake) lockAll() {
	for i := range in.shards {
		in.shards[i].mu.Lock()
	}
}

func (in *intake) unlockAll() {
	for i := range in.shards {
		in.shards[i].mu.Unlock()
	}
}

// pendingByNodeLocked counts the buffered (not yet closed) bids per node;
// callers hold every shard lock (lockAll). The WAL snapshot uses it to
// capture per-node counters as of the rounds already closed: a pending
// bid's round record lands in the tail the snapshot does not cover, so its
// count must come from replaying that record, not from the snapshot too.
func (in *intake) pendingByNodeLocked(dst map[int]int64) {
	for i := range in.shards {
		for _, b := range in.shards[i].bids {
			dst[b.NodeID]++
		}
	}
}

// drain moves every buffered bid into dst, clears the dedup sets, and
// advances each shard's round: bids submitted after a shard's drain belong
// to — and are labeled as — the next round. Only the round-close path calls
// drain (serialized by the job's closeMu), so dst can be a buffer reused
// across rounds.
func (in *intake) drain(dst []auction.Bid) []auction.Bid {
	before := len(dst)
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		dst = append(dst, sh.bids...)
		sh.bids = sh.bids[:0]
		clear(sh.seen)
		sh.round++
		sh.mu.Unlock()
	}
	in.pending.Add(int64(before - len(dst)))
	return dst
}

// setRound aligns every shard's collecting round (used by WAL replay, which
// rebuilds round numbering single-threaded before the job is reachable).
func (in *intake) setRound(round int) {
	for i := range in.shards {
		in.shards[i].round = round
	}
}
