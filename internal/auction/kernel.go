package auction

import (
	"math"
	"runtime"
)

// This file is the one definition of s(q) for the three built-in rule
// families and the one scorer that evaluates it over a slate. The rules'
// Value methods, Score, ScoreBids and Selector.score all end up in
// additiveValue / leontiefValue / cobbDouglasValue, so a score is the same
// float64 bit pattern whichever way it was computed and however the slate
// was cut across the CPUs — the property the exchange's write-ahead-log
// replay rests on (kernel_test.go pins it against a frozen math.Pow
// reference).

func additiveValue(alpha, q []float64) float64 {
	s := 0.0
	for i := range alpha {
		s += alpha[i] * q[i]
	}
	return s
}

func leontiefValue(alpha, q []float64) float64 {
	m := math.Inf(1)
	for i := range alpha {
		if v := alpha[i] * q[i]; v < m {
			m = v
		}
	}
	return m
}

// cobbDouglasValue multiplies the factors in dimension order; negative
// qualities clamp to zero so fractional exponents stay real.
func cobbDouglasValue(scale float64, exponents, q []float64) float64 {
	v := scale
	for i := range exponents {
		qi := q[i]
		if qi < 0 {
			qi = 0
		}
		v *= powFactor(qi, exponents[i])
	}
	return v
}

// powDecomposes reports that math.Pow is the portable implementation whose
// source the identities in powFactor were read from. s390x substitutes an
// assembly Pow, so there every factor goes through math.Pow itself.
const powDecomposes = runtime.GOARCH != "s390x"

// powFactor returns math.Pow(q, e), bit for bit, skipping Pow's generic
// prologue (special-case ladder, Modf, Frexp, squaring loop, Ldexp) where
// its result is known in closed form:
//
//   - e == 1: Pow returns q for every q, NaN included.
//   - finite q > 0, e == 0.5: Pow returns Sqrt(q) from its special-case
//     ladder. (q == ±0 is excluded: Pow(-0, 0.5) is +0, Sqrt(-0) is -0.)
//   - finite q > 0, 0 < e < 0.5: Modf(e) is (0, e), so the squaring loop
//     never runs and Pow returns Ldexp(Exp(e·Log(q)), 0), and Ldexp(x, 0)
//     is x for every x including denormals.
//
// Everything else — q of 0, NaN or ±Inf, exponents in (0.5, 1) and above 1
// — is math.Pow.
func powFactor(q, e float64) float64 {
	if e == 1 {
		return q
	}
	if powDecomposes && q > 0 && q <= math.MaxFloat64 {
		if e == 0.5 {
			return math.Sqrt(q)
		}
		if e > 0 && e < 0.5 {
			return math.Exp(e * math.Log(q))
		}
	}
	return math.Pow(q, e)
}

// finite reports that v is neither NaN nor ±Inf — the only values whose
// difference with themselves is not 0.
func finite(v float64) bool { return v-v == 0 }

// finiteDims is CheckDims without the error value: q has exactly dims
// entries and all of them are finite.
func finiteDims(q []float64, dims int) bool {
	if len(q) != dims {
		return false
	}
	for _, v := range q {
		if !finite(v) {
			return false
		}
	}
	return true
}

// scorePrefix writes scores[i] = S(qᵢ, pᵢ) = s(qᵢ) − pᵢ for the leading
// bids whose quality vector CheckDims accepts and returns their number, so
// len(bids) means the whole span was scored. The rule kind is resolved
// once per span, not once per bid; rules other than the three built-in
// value types (Normalized, caller-defined ones) evaluate through
// rule.Value.
func scorePrefix(rule ScoringRule, bids []Bid, scores []float64) int {
	scores = scores[:len(bids)]
	switch r := rule.(type) {
	case Additive:
		for i := range bids {
			b := &bids[i]
			if !finiteDims(b.Qualities, len(r.Alpha)) {
				return i
			}
			scores[i] = additiveValue(r.Alpha, b.Qualities) - b.Payment
		}
	case Leontief:
		for i := range bids {
			b := &bids[i]
			if !finiteDims(b.Qualities, len(r.Alpha)) {
				return i
			}
			scores[i] = leontiefValue(r.Alpha, b.Qualities) - b.Payment
		}
	case CobbDouglas:
		for i := range bids {
			b := &bids[i]
			if !finiteDims(b.Qualities, len(r.Exponents)) {
				return i
			}
			scores[i] = cobbDouglasValue(r.Scale, r.Exponents, b.Qualities) - b.Payment
		}
	default:
		dims := rule.Dims()
		for i := range bids {
			b := &bids[i]
			if !finiteDims(b.Qualities, dims) {
				return i
			}
			scores[i] = rule.Value(b.Qualities) - b.Payment
		}
	}
	return len(bids)
}

// spanMinBids is the fewest bids a goroutine is started for: a slate is cut
// into spans only when each gets at least this many. Waking an idle CPU and
// joining it again costs tens of microseconds — several hundred Cobb–Douglas
// bids, thousands of additive ones — and BenchmarkScoreBids at -cpu 1,2,4
// puts the crossover for the mega_round rule between 1,024 and 2,048 bids
// per span (BENCH.md, PR 23): two spans of 1,024 lose 11% to the inline
// loop, two of 2,048 win 8%.
const spanMinBids = 2048

// spanJoin brings the results of a cut slate's spans back to the caller. A
// Selector keeps one, so cutting a slate allocates only the goroutines'
// closures.
type spanJoin struct{ rest chan int }

// score is scorePrefix over a whole slate: it returns the index of the first
// bid whose quality vector CheckDims rejects, len(bids) when there is none.
// A slate of 2·spanMinBids bids and more is cut into at most GOMAXPROCS
// contiguous spans scored concurrently, the first on the calling goroutine;
// each score is computed exactly as it would be inline, so the cut changes
// no bit — and the rule's Value must be safe for concurrent calls.
func (j *spanJoin) score(rule ScoringRule, bids []Bid, scores []float64) int {
	n := len(bids)
	spans := min(n/spanMinBids, runtime.GOMAXPROCS(0))
	if spans < 2 {
		return scorePrefix(rule, bids, scores)
	}
	if cap(j.rest) < spans-1 {
		j.rest = make(chan int, spans-1) // one send per goroutine below: none blocks
	}
	rest := j.rest
	for i := 1; i < spans; i++ {
		lo, hi := i*n/spans, (i+1)*n/spans
		go func() { rest <- scoreSpan(rule, bids, scores, lo, hi) }()
	}
	first := scoreSpan(rule, bids, scores, 0, n/spans)
	for i := 1; i < spans; i++ {
		first = min(first, <-rest)
	}
	return first
}

// scoreSpan scores bids[lo:hi] of a slate and returns the slate index of the
// span's first invalid bid, len(bids) when it has none.
func scoreSpan(rule ScoringRule, bids []Bid, scores []float64, lo, hi int) int {
	if bad := lo + scorePrefix(rule, bids[lo:hi], scores[lo:hi]); bad < hi {
		return bad
	}
	return len(bids)
}

// ScoreBids is Score over a slate: scores[i] = S(bids[i]) for every bid, or
// the error Score reports for the first bid whose quality vector has the
// wrong length or a non-finite entry (the scores past it are then
// undefined). scores must have at least len(bids) entries. It is the scorer
// Selector.Select runs: inline below 2·spanMinBids bids or at GOMAXPROCS 1,
// cut across the CPUs above (see spanJoin.score).
func ScoreBids(rule ScoringRule, bids []Bid, scores []float64) error {
	var join spanJoin
	if i := join.score(rule, bids, scores); i < len(bids) {
		return CheckDims(rule.Dims(), bids[i].Qualities)
	}
	return nil
}
