package auction

import (
	"fmt"
	"math"
	"math/rand"
)

// This file is the winner-determination core every public entry point of the
// package routes through. One request type describes all supported variants
// (plain FMore top-K, ψ-FMore, first- and second-price payments), and one
// pipeline executes them:
//
//	score → rank → select → pay
//
// The score stage validates every bid, evaluates S(qᵢ, pᵢ) — across the CPUs
// when the slate is large enough to pay for it (spanJoin.score) — and draws
// exactly one coin-flip tiebreak per bid in input order, the rng contract the
// exchange's write-ahead log replay depends on. The rank stage is a bounded
// partial top-K selection: a size-K min-heap over (score, tiebreak, position)
// that also tracks the best excluded candidate, i.e. the (K+1)-th reference
// score the second-price rule needs, in O(N log K) instead of the O(N log N)
// full sort. ψ-admission, which may walk past the K-th candidate, falls back
// to a full in-place heapsort over the same pooled buffer. The select and pay
// stages are shared by both variants.
//
// All scratch memory lives on the Selector, so a caller that keeps one
// Selector per auction stream (one per exchange job, one per Auctioneer)
// runs the whole pipeline with zero steady-state allocations.

// SelectionRequest describes one winner-determination problem. The zero
// value of every optional field means "off": Psi 0 (or 1) is deterministic
// admission, Payment 0 is FirstPrice.
type SelectionRequest struct {
	// Rule is the broadcast scoring rule S(q, p) = Rule.Value(q) − p.
	Rule ScoringRule
	// Bids is the round's sealed bid slate.
	Bids []Bid
	// K is the number of winners to select (required, >= 1).
	K int
	// Psi in (0, 1) runs ψ-FMore admission (§III-C); 0 means plain top-K,
	// and so does 1 (every candidate admitted, no admission draws).
	Psi float64
	// Payment selects first- or second-price payments (default FirstPrice).
	Payment PaymentRule
}

// Selector runs winner determinations over reusable scratch buffers. The
// zero value is ready to use; buffers grow to the largest slate seen and are
// then reused, so the steady state allocates nothing. A Selector is not safe
// for concurrent use — give each goroutine (or each exchange job) its own.
//
// Buffer reuse rules: the Outcome returned by Select aliases the Selector's
// internal buffers (Winners, Scores) and the request's bids (each
// Winner.Bid.Qualities aliases the corresponding input bid). It is valid
// only until the next Select call on the same Selector; call Outcome.Clone
// to retain it. The package-level Select does this for callers that prefer
// an owning result over buffer reuse.
type Selector struct {
	scores   []float64   // per-bid S(qᵢ, pᵢ), input order; aliased by Outcome.Scores
	tiebreak []float64   // per-bid coin-flip key, input order
	heap     []scoredBid // bounded top-K heap (deterministic top-K path)
	ranked   []scoredBid // full descending ranking (ψ path)
	walk     []scoredBid // ψ-admission working set
	selected []scoredBid // winners in selection order (ψ path)
	winners  []Winner    // outcome assembly buffer; aliased by Outcome.Winners
	join     spanJoin    // brings a large slate's concurrently scored spans together
}

// scoredBid pairs a bid with its evaluated score and input position.
type scoredBid struct {
	bid   Bid
	score float64
	pos   int
}

// Select runs one winner determination on the Selector's pooled buffers.
// The returned Outcome follows the buffer reuse rules documented on
// Selector: it is valid until the next call and aliases the request's bids.
//
// The rng contract matches the original full-sort implementation (frozen in
// reference_test.go) bit for bit: exactly one Float64 tiebreak draw per bid
// in input order, followed (for ψ-FMore) by one admission draw per
// candidate visit in descending score order.
func (s *Selector) Select(req SelectionRequest, rng *rand.Rand) (Outcome, error) {
	if req.K < 1 {
		return Outcome{}, fmt.Errorf("auction: K must be >= 1, got %d", req.K)
	}
	if req.Psi != 0 && (req.Psi <= 0 || req.Psi > 1 || math.IsNaN(req.Psi)) {
		// NaN compares unequal to 0, so a NaN Psi lands here too.
		return Outcome{}, fmt.Errorf("auction: psi must be in (0, 1], got %v", req.Psi)
	}
	if err := s.score(req, rng); err != nil {
		return Outcome{}, err
	}
	return s.pick(req, rng), nil
}

// pick runs the rank, select and pay stages over the scored slate: the ψ
// walk for ψ in (0, 1), the bounded top-K heap otherwise.
func (s *Selector) pick(req SelectionRequest, rng *rand.Rand) Outcome {
	if req.Psi > 0 && req.Psi < 1 {
		return s.selectPsi(req, rng)
	}
	return s.selectTopK(req)
}

// score evaluates S(qᵢ, pᵢ) into s.scores through the slate scorer, which
// checks every quality vector on the way, then hands over to draw.
func (s *Selector) score(req SelectionRequest, rng *rand.Rand) error {
	n := len(req.Bids)
	if n == 0 {
		return ErrNoBids
	}
	if cap(s.scores) < n {
		s.scores = make([]float64, n)
	}
	s.scores = s.scores[:n]
	return s.draw(req, s.join.score(req.Rule, req.Bids, s.scores), rng)
}

// draw checks the payments of the valid leading bids whose scores are in
// s.scores and draws one tiebreak key for each. Ties are broken by a fair
// coin flip as the paper specifies ("ties are resolved by the flip of a
// coin"), implemented as a random key drawn per bid in input order. An
// invalid bid — the first non-finite payment, or the bid at index valid
// that the scorer stopped at — is reported by Bid.Validate after exactly as
// many draws as bids precede it, as when each bid was validated, scored and
// drawn for in turn.
func (s *Selector) draw(req SelectionRequest, valid int, rng *rand.Rand) error {
	n := len(req.Bids)
	if cap(s.tiebreak) < n {
		s.tiebreak = make([]float64, n)
	}
	s.tiebreak = s.tiebreak[:n]
	dims := req.Rule.Dims()
	for i := range req.Bids[:valid] {
		if !finite(req.Bids[i].Payment) {
			return req.Bids[i].Validate(dims)
		}
		s.tiebreak[i] = rng.Float64()
	}
	if valid < n {
		return req.Bids[valid].Validate(dims)
	}
	return nil
}

// better reports whether a outranks b: higher score, then higher coin-flip
// key, then earlier input position. This is the strict total order the
// original stable sort produced, so every ranking below reproduces it exactly.
func (s *Selector) better(a, b scoredBid) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if ta, tb := s.tiebreak[a.pos], s.tiebreak[b.pos]; ta != tb {
		return ta > tb
	}
	return a.pos < b.pos
}

// siftUp and siftDown maintain a min-heap under better — the worst retained
// candidate sits at the root, so the heap holds the best len(h) candidates
// seen so far.
func (s *Selector) siftUp(h []scoredBid, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.better(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (s *Selector) siftDown(h []scoredBid, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && s.better(h[l], h[r]) {
			m = r
		}
		if !s.better(h[i], h[m]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// sortDescending heapsorts h in place into descending better-order. Because
// better is a strict total order (position breaks every remaining tie), the
// result is independent of the algorithm — identical to a stable sort.
func (s *Selector) sortDescending(h []scoredBid) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		s.siftDown(h, i)
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		s.siftDown(h[:end], 0)
	}
}

// selectTopK is the deterministic FMore winner determination on the bounded
// heap: O(N log K) with K ≪ N instead of a full sort. The best candidate
// excluded from the heap is tracked as it goes — that is exactly the
// (K+1)-th ranked score the second-price rule references.
func (s *Selector) selectTopK(req SelectionRequest) Outcome {
	n := len(req.Bids)
	k := min(req.K, n)
	if cap(s.heap) < k {
		s.heap = make([]scoredBid, 0, k)
	}
	h := s.heap[:0]
	var excl scoredBid // best candidate not retained in the heap
	haveExcl := false
	for i, sc := range s.scores {
		// Score first: a bid strictly below both the worst retained and the
		// best excluded candidate takes neither branch below whatever its
		// tiebreak, so it is passed over before its record is built. A NaN
		// compares false and falls through to the full comparison.
		if haveExcl && sc < h[0].score && sc < excl.score {
			continue
		}
		e := scoredBid{bid: req.Bids[i], score: sc, pos: i}
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
	s.heap = h
	s.sortDescending(h)

	// The aggregator's individual-rationality constraint (V >= 0): bids with
	// negative scores are never selected, because U(q) − p < 0 would make
	// the aggregator worse off than not hiring the node. h is sorted, so the
	// winners are the non-negative prefix.
	selected := h
	for i := range h {
		if h[i].score < 0 {
			selected = h[:i]
			break
		}
	}

	// Reference score for second-price: the best score among non-selected
	// bids — the next heap entry when IR truncated the prefix, otherwise the
	// best candidate the heap evicted (the (K+1)-th overall).
	refScore, hasRef := 0.0, false
	switch {
	case len(selected) < len(h):
		refScore, hasRef = h[len(selected)].score, true
	case haveExcl:
		refScore, hasRef = excl.score, true
	}
	return s.outcome(req, selected, refScore, hasRef)
}

// rankAll fills s.ranked with every bid in descending better-order — the
// full ranking the ψ-admission walk needs because it may visit candidates
// past the K-th.
func (s *Selector) rankAll(req SelectionRequest) {
	n := len(req.Bids)
	if cap(s.ranked) < n {
		s.ranked = make([]scoredBid, 0, n)
	}
	r := s.ranked[:0]
	for i := range req.Bids {
		r = append(r, scoredBid{bid: req.Bids[i], score: s.scores[i], pos: i})
	}
	s.ranked = r
	s.sortDescending(r)
}

// selectPsi implements ψ-FMore (§III-C): bids are visited in descending
// score order and each is admitted with probability ψ, repeating passes over
// the remaining candidates until K winners are chosen or every eligible bid
// has been admitted.
func (s *Selector) selectPsi(req SelectionRequest, rng *rand.Rand) Outcome {
	s.rankAll(req)
	if cap(s.walk) < len(s.ranked) {
		s.walk = make([]scoredBid, 0, len(s.ranked))
	}
	remaining := s.walk[:0]
	for _, sb := range s.ranked {
		if !(sb.score >= 0) {
			continue // IR-violating (or unordered, NaN) bids are dropped up front
		}
		remaining = append(remaining, sb)
	}
	s.walk = remaining
	if len(remaining) == 0 {
		return Outcome{Scores: s.scores}
	}
	if need := min(req.K, len(remaining)); cap(s.selected) < need {
		s.selected = make([]scoredBid, 0, need)
	}
	selected := s.selected[:0]
	// A pass may select nobody (every ψ-flip fails), so termination is only
	// almost-sure; the pass cap keeps it deterministic against a pathological
	// rng while being unreachable in practice (P(no progress per pass) =
	// (1−ψ)^len(remaining)).
	const maxPasses = 1 << 16
	for pass := 0; len(selected) < req.K && len(remaining) > 0 && pass < maxPasses; pass++ {
		next := remaining[:0]
		for _, sb := range remaining {
			if len(selected) >= req.K {
				next = append(next, sb)
				continue
			}
			if rng.Float64() < req.Psi {
				selected = append(selected, sb)
			} else {
				next = append(next, sb)
			}
		}
		remaining = next
	}
	s.selected = selected
	// The second-price reference is the (len(selected)+1)-th ranked score.
	refScore, hasRef := 0.0, false
	if len(selected) < len(s.ranked) {
		refScore, hasRef = s.ranked[len(selected)].score, true
	}
	return s.outcome(req, selected, refScore, hasRef)
}

// outcome applies the payment rule and assembles the Outcome from pooled
// buffers. refScore is the best non-selected score (the second-price
// reference), floored at 0 — the aggregator IR constraint never pays beyond
// s(q).
func (s *Selector) outcome(req SelectionRequest, selected []scoredBid, refScore float64, hasRef bool) Outcome {
	if refScore < 0 {
		refScore = 0
	}
	if cap(s.winners) < len(selected) || s.winners == nil {
		s.winners = make([]Winner, 0, max(len(selected), 1))
	}
	w := s.winners[:0]
	out := Outcome{Scores: s.scores}
	for _, sb := range selected {
		pay := sb.bid.Payment
		if req.Payment == SecondPrice && hasRef {
			// Raise the payment until this winner's score drops to the
			// reference score: p' = s(q) − refScore ≥ p.
			if p2 := req.Rule.Value(sb.bid.Qualities) - refScore; p2 > pay {
				pay = p2
			}
		}
		w = append(w, Winner{Bid: sb.bid, Score: sb.score, Payment: pay})
		out.AggregatorProfit += req.Rule.Value(sb.bid.Qualities) - pay
	}
	s.winners = w
	out.Winners = w
	return out
}

// Select runs one winner determination on a throwaway Selector and returns
// an Outcome that owns all of its memory (winners are deep-cloned, scores
// freshly allocated). Callers on a hot path should hold a Selector instead
// and amortize the buffers.
func Select(req SelectionRequest, rng *rand.Rand) (Outcome, error) {
	var s Selector
	out, err := s.Select(req, rng)
	if err != nil {
		return Outcome{}, err
	}
	return out.Clone(), nil
}
