package auction

import (
	"errors"
	"fmt"
	"math"

	"fmore/internal/numeric"
)

// ErrDimensionMismatch reports a quality vector whose length does not match
// the scoring rule or cost function it is evaluated under.
var ErrDimensionMismatch = errors.New("auction: quality vector dimension mismatch")

// ScoringRule is the resource-utility part s(q₁..qₘ) of the quasi-linear
// scoring function S(q, p) = s(q) − p the aggregator broadcasts in the bid
// ask. Implementations must be non-decreasing in every coordinate and safe
// for concurrent calls: a large slate is scored from several goroutines.
type ScoringRule interface {
	// Value returns s(q). It panics only on programmer error; dimension
	// mismatches are reported as NaN-free zero with ok=false via CheckDims.
	Value(q []float64) float64
	// Dims returns the number m of resource dimensions.
	Dims() int
	// Name identifies the rule family for logs and experiment output.
	Name() string
}

// Score evaluates the quasi-linear scoring function S(q, p) = s(q) − p
// (Eq (4) of the paper).
func Score(rule ScoringRule, q []float64, p float64) (float64, error) {
	if err := CheckDims(rule.Dims(), q); err != nil {
		return 0, err
	}
	return rule.Value(q) - p, nil
}

// CheckDims validates that q has exactly want entries, all finite.
func CheckDims(want int, q []float64) error {
	if len(q) != want {
		return fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(q), want)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("auction: quality[%d] = %v is not finite", i, v)
		}
	}
	return nil
}

// Additive is the perfect-substitution utility s(q) = Σ αᵢqᵢ, the paper's
// recommendation for substitutable resources such as GPU and CPU. It is also
// the scoring rule of the real-cluster experiment (§V-A, coefficients
// 0.4/0.3/0.3 over computing power, bandwidth, data size).
type Additive struct {
	Alpha []float64
}

var _ ScoringRule = Additive{}

// NewAdditive returns an additive rule with the given positive coefficients.
func NewAdditive(alpha ...float64) (Additive, error) {
	if err := checkCoefficients(alpha); err != nil {
		return Additive{}, err
	}
	return Additive{Alpha: append([]float64(nil), alpha...)}, nil
}

// Value implements ScoringRule.
func (a Additive) Value(q []float64) float64 { return additiveValue(a.Alpha, q) }

// Dims implements ScoringRule.
func (a Additive) Dims() int { return len(a.Alpha) }

// Name implements ScoringRule.
func (a Additive) Name() string { return "additive" }

// Leontief is the perfect-complementary utility s(q) = min{αᵢqᵢ}, the
// paper's choice when resources are only useful together (e.g. bandwidth and
// computing power), and the rule of the five-node walk-through example.
type Leontief struct {
	Alpha []float64
}

var _ ScoringRule = Leontief{}

// NewLeontief returns a Leontief (min) rule with positive coefficients.
func NewLeontief(alpha ...float64) (Leontief, error) {
	if err := checkCoefficients(alpha); err != nil {
		return Leontief{}, err
	}
	return Leontief{Alpha: append([]float64(nil), alpha...)}, nil
}

// Value implements ScoringRule.
func (l Leontief) Value(q []float64) float64 { return leontiefValue(l.Alpha, q) }

// Dims implements ScoringRule.
func (l Leontief) Dims() int { return len(l.Alpha) }

// Name implements ScoringRule.
func (l Leontief) Name() string { return "leontief" }

// CobbDouglas is the general Cobb–Douglas utility
// s(q) = Scale · Π qᵢ^Exponent_i. The paper's simulator uses the special case
// s(q₁, q₂) = α·q₁·q₂ with α = 25 (Scale = 25, exponents 1); Proposition 4's
// guidance assumes Σ exponents = 1 (see guidance.go).
type CobbDouglas struct {
	Scale     float64
	Exponents []float64
}

var _ ScoringRule = CobbDouglas{}

// NewCobbDouglas returns a Cobb–Douglas rule. Scale and every exponent must
// be positive.
func NewCobbDouglas(scale float64, exponents ...float64) (CobbDouglas, error) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return CobbDouglas{}, fmt.Errorf("auction: Cobb-Douglas scale must be positive and finite, got %v", scale)
	}
	if err := checkCoefficients(exponents); err != nil {
		return CobbDouglas{}, err
	}
	return CobbDouglas{Scale: scale, Exponents: append([]float64(nil), exponents...)}, nil
}

// Value implements ScoringRule. Qualities must be non-negative; negative
// inputs are clamped to zero so fractional exponents stay real.
func (c CobbDouglas) Value(q []float64) float64 {
	return cobbDouglasValue(c.Scale, c.Exponents, q)
}

// Dims implements ScoringRule.
func (c CobbDouglas) Dims() int { return len(c.Exponents) }

// Name implements ScoringRule.
func (c CobbDouglas) Name() string { return "cobb-douglas" }

// Normalized wraps a ScoringRule so that each quality dimension is min–max
// normalized to [0, 1] before evaluation, as in the walk-through example of
// §III-B where data size and bandwidth live on very different scales.
type Normalized struct {
	Rule ScoringRule
	Lo   []float64
	Hi   []float64
}

var _ ScoringRule = Normalized{}

// NewNormalized builds a normalizing wrapper; lo/hi give the per-dimension
// ranges used for min–max normalization and must match the inner rule's
// dimension count.
func NewNormalized(rule ScoringRule, lo, hi []float64) (Normalized, error) {
	if len(lo) != rule.Dims() || len(hi) != rule.Dims() {
		return Normalized{}, fmt.Errorf("%w: ranges %d/%d vs rule %d", ErrDimensionMismatch, len(lo), len(hi), rule.Dims())
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			return Normalized{}, fmt.Errorf("auction: normalization range [%v, %v] in dim %d is empty", lo[i], hi[i], i)
		}
	}
	return Normalized{
		Rule: rule,
		Lo:   append([]float64(nil), lo...),
		Hi:   append([]float64(nil), hi...),
	}, nil
}

// Value implements ScoringRule. Up to normStack dimensions over one of the
// built-in rule families it allocates nothing: the normalized vector lives
// on the stack, which it can only do while no interface call sees it.
func (n Normalized) Value(q []float64) float64 {
	if len(q) <= normStack {
		var buf [normStack]float64
		norm := buf[:len(q)]
		n.normalize(norm, q)
		switch r := n.Rule.(type) {
		case Additive:
			return additiveValue(r.Alpha, norm)
		case Leontief:
			return leontiefValue(r.Alpha, norm)
		case CobbDouglas:
			return cobbDouglasValue(r.Scale, r.Exponents, norm)
		}
	}
	norm := make([]float64, len(q))
	n.normalize(norm, q)
	return n.Rule.Value(norm)
}

// normStack is the widest quality vector Normalized.Value normalizes on
// the stack.
const normStack = 8

func (n Normalized) normalize(dst, q []float64) {
	for i := range q {
		dst[i] = numeric.MinMaxNormalize(q[i], n.Lo[i], n.Hi[i])
	}
}

// Dims implements ScoringRule.
func (n Normalized) Dims() int { return n.Rule.Dims() }

// Name implements ScoringRule.
func (n Normalized) Name() string { return "normalized-" + n.Rule.Name() }

func checkCoefficients(alpha []float64) error {
	if len(alpha) == 0 {
		return errors.New("auction: at least one coefficient required")
	}
	for i, a := range alpha {
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("auction: coefficient[%d] = %v must be positive and finite", i, a)
		}
	}
	return nil
}
