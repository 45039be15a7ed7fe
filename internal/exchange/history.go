package exchange

import "fmt"

// historyEntry is one retained round: the outcome every reader shares and,
// on a durable exchange, the round's encoded log record in its history form
// (see appendWalRound) — the bytes a snapshot splices instead of
// re-encoding. Both are written once, at close or by replay, and never
// change while retained; the outcome's memory is never reused at all, rec
// is recycled through Job.freeRecs after eviction. rec is nil on an
// in-memory exchange.
type historyEntry struct {
	RoundOutcome
	rec []byte
}

// history is a job's window of retained rounds, oldest first and
// contiguous: entries[i] is round base+1+i. All window arithmetic lives
// here. Job.mu guards it.
type history struct {
	base    int // rounds 1..base have left the window
	entries []historyEntry
}

// push appends the next completed round. A window already holding keep
// rounds (keep >= 1) first evicts its oldest entry and returns that entry's
// record bytes for recycling; the shift stays in the slice's storage. A
// round that does not continue the numbering restarts the window at it:
// replay cannot meet such a gap, but at must index contiguously.
func (h *history) push(e historyEntry, keep int) (evicted []byte) {
	if e.Round != h.last()+1 {
		h.reset(e.Round - 1)
	}
	if n := len(h.entries); n >= keep {
		evicted = h.entries[0].rec
		copy(h.entries, h.entries[1:])
		h.entries[n-1] = e
		h.base++
		return evicted
	}
	h.entries = append(h.entries, e)
	return nil
}

// evictedThrough is the last round preceding the window: what a snapshot
// records, and reset restores, so that an empty window still tells evicted
// rounds from pending ones.
func (h *history) evictedThrough() int { return h.base }

// last is the latest completed round: the window's newest entry, or the
// last evicted round while the window is empty.
func (h *history) last() int { return h.base + len(h.entries) }

// reset empties the window and places it after round base.
func (h *history) reset(base int) {
	h.entries = h.entries[:0]
	h.base = base
}

// at resolves a round number; found false with a nil error means the round
// has not completed yet.
func (h *history) at(round int) (ro RoundOutcome, found bool, err error) {
	idx := round - 1 - h.base
	switch {
	case round < 1:
		return RoundOutcome{}, false, fmt.Errorf("exchange: round %d out of range", round)
	case idx < 0:
		return RoundOutcome{}, false, fmt.Errorf("%w: round %d (retained: %d+)", ErrOutcomeEvicted, round, h.base+1)
	case idx < len(h.entries):
		return h.entries[idx].RoundOutcome, true, nil
	}
	return RoundOutcome{}, false, nil
}

// latest returns the most recent completed round, if any is retained.
func (h *history) latest() (RoundOutcome, bool) {
	if n := len(h.entries); n > 0 {
		return h.entries[n-1].RoundOutcome, true
	}
	return RoundOutcome{}, false
}

// after returns up to limit (0 = all) retained rounds numbered above round,
// oldest first, and whether more remain. The page slice is the caller's;
// the outcomes in it are the shared retained values.
func (h *history) after(round, limit int) (page []RoundOutcome, more bool) {
	rest := h.entries[min(max(round-h.base, 0), len(h.entries)):]
	if limit > 0 && len(rest) > limit {
		rest, more = rest[:limit], true
	}
	if len(rest) == 0 {
		return nil, false
	}
	page = make([]RoundOutcome, len(rest))
	for i := range rest {
		page[i] = rest[i].RoundOutcome
	}
	return page, more
}
