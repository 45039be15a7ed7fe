package exchange

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"fmore/internal/auction"
)

// maxIntakeShards caps the stripe count (see intakeStripes): beyond this,
// stripe collisions are already rare at any realistic bidder concurrency
// and more stripes only cost memory and drain work.
const maxIntakeShards = 32

// intakeStripes sizes a job's intake for procs scheduler threads: four
// stripes per thread, so two submitters running at once meet on one stripe
// lock a quarter as often as at one stripe per thread, capped at
// maxIntakeShards (newIntake rounds the count up to a power of two; the
// cap already is one).
func intakeStripes(procs int) int {
	return min(4*procs, maxIntakeShards)
}

// intakeShard is one stripe of a job's bid intake: an append-only buffer,
// its dedup table, and the round number the buffered bids belong to, all
// under a shard-private mutex. A node always hashes to the same shard, so
// the per-shard table implements the exchange-wide one-bid-per-node-per-
// round rule exactly.
type intakeShard struct {
	mu sync.Mutex
	// round is the collecting round of the buffered bids. It advances when
	// the shard is drained, so a submit racing a round close is labeled with
	// the round it actually lands in: the closing round if it got into the
	// buffer before the drain, the next round otherwise.
	round int
	bids  []auction.Bid
	// seen is the dedup table: open-addressed (node, round) slots, a power
	// of two long, at most half of them in use. A slot is taken only while
	// its round is the shard's current one, so advancing round empties the
	// whole table at once and a drain clears nothing.
	seen []seenSlot
	// pending mirrors len(bids). It is written under mu and read without
	// it: the quorum check and PendingBids sum it over the stripes, so no
	// submit writes a counter another stripe's submitters share.
	pending atomic.Int64
	// pad rounds the shard up to two full cache lines so two bidders on
	// adjacent shards never false-share a line.
	_ [56]byte
}

// seenSlot is one entry of a shard's dedup table: node bid in round.
type seenSlot struct {
	node  int
	round int
}

// minSeenSlots is the size of a shard's first dedup table.
const minSeenSlots = 16

// markSeen records that node bid in the shard's current round, reporting
// false if it already had. The home slot is the top bits of the node's
// 64-bit Fibonacci product — its low bits depend only on the node's low
// bits — and collisions probe linearly. Nothing is ever removed within a
// round, so a probe that meets a free slot has seen the whole chain.
// Callers hold mu; the table grows (keeping its load at most one half)
// before an insert could take it past that.
func (sh *intakeShard) markSeen(node int) bool {
	if 2*(len(sh.bids)+1) > len(sh.seen) {
		sh.growSeen()
	}
	mask := len(sh.seen) - 1
	i := homeSlot(node, len(sh.seen))
	for {
		s := &sh.seen[i]
		if s.round != sh.round {
			*s = seenSlot{node: node, round: sh.round}
			return true
		}
		if s.node == node {
			return false
		}
		i = (i + 1) & mask
	}
}

// homeSlot is node's first probe in a table of size slots (a power of two).
func homeSlot(node, size int) int {
	return int(uint64(node) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(size))))
}

// growSeen doubles the dedup table, re-inserting only the current round's
// slots; callers hold mu.
func (sh *intakeShard) growSeen() {
	old := sh.seen
	sh.seen = make([]seenSlot, max(2*len(old), minSeenSlots))
	mask := len(sh.seen) - 1
	for _, s := range old {
		if s.round != sh.round {
			continue
		}
		i := homeSlot(s.node, len(sh.seen))
		for sh.seen[i].round == sh.round {
			i = (i + 1) & mask
		}
		sh.seen[i] = s
	}
}

// intake is a job's striped bid-ingestion front: P shards, each with its own
// lock, dedup table and pending count, so concurrent bidders only serialize
// — and only share a written cache line — when they hash to the same
// stripe.
type intake struct {
	shards []intakeShard
	mask   uint32
}

// newIntake builds an intake of n stripes, rounded up to a power of two
// (the shard hash masks). Jobs size it with intakeStripes.
func newIntake(n int) *intake {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	in := &intake{shards: make([]intakeShard, shards), mask: uint32(shards - 1)}
	for i := range in.shards {
		in.shards[i].round = 1
	}
	return in
}

// stripeHash is the hash whose low bits pick a node's stripe. Fibonacci
// hashing spreads both dense (sequential IDs) and sparse node populations
// evenly across stripes.
func stripeHash(nodeID int) uint32 {
	return uint32(nodeID) * 2654435761 >> 16
}

// shard maps a node to its stripe.
func (in *intake) shard(nodeID int) *intakeShard {
	return &in.shards[stripeHash(nodeID)&in.mask]
}

// pending sums the shards' buffered-bid counts without taking a lock.
func (in *intake) pending() int {
	n := int64(0)
	for i := range in.shards {
		n += in.shards[i].pending.Load()
	}
	return int(n)
}

// submit appends one bid to the node's shard. closed is the job's
// lock-free closed flag, checked under the shard lock so a submit that
// observes it unset is linearized before the close.
//
// Acceptance side effects run INSIDE the shard's critical section, which
// is what lets the WAL snapshot subtract pending bids from the counters it
// captures (see captureSnapshot) without racing half-applied submissions:
// accepted, when non-nil, is the node's accepted-bid counter (registered
// nodes — the allocation-free hot path); register, when non-nil, is the
// open posture's registration of an unknown node (Exchange.RegisterNode),
// run once per node lifetime, which hands back the node or refuses the bid.
// It runs before the duplicate check: a duplicate's node registered with
// its first bid, so a refused bid never grows the registry.
// The lock ordering stays acyclic: submit holds one shard lock and may take
// ex.nodeMu and the registry's insert mutex inside it (a node's first bid
// registering it), the only shard→node order there is — no holder of those
// waits on a shard lock, the snapshot capture releases nodeMu before it
// takes the shard locks, and its Range, run with every shard lock held,
// takes none — and submit never waits on closeMu or ex.mu.
//
// It returns the round the bid was entered into.
func (in *intake) submit(b auction.Bid, closed *atomic.Bool, accepted *atomic.Int64, register func(int, string) (*NodeInfo, error)) (round int, err error) {
	sh := in.shard(b.NodeID)
	sh.mu.Lock()
	if closed.Load() {
		sh.mu.Unlock()
		return 0, ErrJobClosed
	}
	if register != nil {
		info, err := register(b.NodeID, "")
		if err != nil {
			sh.mu.Unlock()
			return 0, err
		}
		accepted = &info.bids
	}
	if !sh.markSeen(b.NodeID) {
		sh.mu.Unlock()
		return 0, ErrDuplicateBid
	}
	sh.bids = append(sh.bids, b)
	sh.pending.Store(int64(len(sh.bids)))
	round = sh.round
	if accepted != nil {
		accepted.Add(1)
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

// drain moves every buffered bid into dst and advances each shard's round,
// which empties its dedup table: bids submitted after a shard's drain
// belong to — and are labeled as — the next round. Only the round-close path calls
// drain (serialized by the job's closeMu), so dst can be a buffer reused
// across rounds.
func (in *intake) drain(dst []auction.Bid) []auction.Bid {
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		dst = append(dst, sh.bids...)
		sh.bids = sh.bids[:0]
		sh.pending.Store(0)
		sh.round++
		sh.mu.Unlock()
	}
	return dst
}

// setRound aligns every shard's collecting round (used by WAL replay, which
// rebuilds round numbering single-threaded before the job is reachable).
// It drops the dedup tables: a slot stamped with the new round would
// otherwise read as taken.
func (in *intake) setRound(round int) {
	for i := range in.shards {
		in.shards[i].round = round
		in.shards[i].seen = nil
	}
}
