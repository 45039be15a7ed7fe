package exchange

import "fmt"

// history is a job's window of retained rounds, contiguous in numbering:
// the i-th retained round (oldest first) is round base+1+i and lives in
// slots[(head+i) mod len(slots)]. An entry is the outcome alone, the one
// every reader shares, whether a close or replay put it there: it is
// written once and never changed while retained, and a snapshot encodes
// its record from a copy (snapCapture). The slots are a ring that grows,
// by doubling, up to keep entries; once it is full, a push overwrites the
// oldest slot and advances head, so eviction moves no other entry. All
// window arithmetic lives here. Job.mu guards it.
type history struct {
	base  int // rounds 1..base have left the window
	head  int // slot of the oldest retained round
	n     int // retained rounds
	slots []RoundOutcome
}

// push appends the next completed round. A window already holding keep
// rounds (keep >= 1, the same on every push) first evicts its oldest
// entry. A round that does not continue the numbering restarts the window
// at it: replay cannot meet such a gap, but at must index contiguously.
func (h *history) push(ro RoundOutcome, keep int) {
	if ro.Round != h.last()+1 {
		h.reset(ro.Round - 1)
	}
	if h.n >= keep {
		h.head = h.slot(1)
		h.n--
		h.base++
	} else if h.n == len(h.slots) { // head is 0 until the ring first fills
		h.slots = append(h.slots, make([]RoundOutcome, min(max(h.n, 4), keep-h.n))...)
	}
	h.slots[h.slot(h.n)] = ro
	h.n++
}

// slot is the ring index of the i-th retained round, 0 <= i <= len(slots).
func (h *history) slot(i int) int {
	if i += h.head; i >= len(h.slots) {
		i -= len(h.slots)
	}
	return i
}

// count is the number of retained rounds, and entry the i-th of them,
// oldest first, 0 <= i < count().
func (h *history) count() int                { return h.n }
func (h *history) entry(i int) *RoundOutcome { return &h.slots[h.slot(i)] }

// evictedThrough is the last round preceding the window: what a snapshot
// records, so that an empty window still tells evicted rounds from pending
// ones.
func (h *history) evictedThrough() int { return h.base }

// last is the latest completed round: the window's newest entry, or the
// last evicted round while the window is empty.
func (h *history) last() int { return h.base + h.n }

// reset empties the window and places it after round base.
func (h *history) reset(base int) {
	h.base, h.head, h.n = base, 0, 0
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
	case idx < h.n:
		return *h.entry(idx), true, nil
	}
	return RoundOutcome{}, false, nil
}

// latest returns the most recent completed round, if any is retained.
func (h *history) latest() (RoundOutcome, bool) {
	if h.n > 0 {
		return *h.entry(h.n - 1), true
	}
	return RoundOutcome{}, false
}

// after returns up to limit (0 = all) retained rounds numbered above round,
// oldest first, and whether more remain. The page slice is the caller's;
// the outcomes in it are the shared retained values.
func (h *history) after(round, limit int) (page []RoundOutcome, more bool) {
	from := min(max(round-h.base, 0), h.n)
	rest := h.n - from
	if limit > 0 && rest > limit {
		rest, more = limit, true
	}
	if rest == 0 {
		return nil, false
	}
	page = make([]RoundOutcome, rest)
	for i := range page {
		page[i] = *h.entry(from + i)
	}
	return page, more
}
