// Package dist provides the probability distributions of the FMore model:
// the common-knowledge distribution F of the private cost parameter θ that
// every bidder samples from (§III-B). The paper's experiments draw θ from
// uniform distributions, so Uniform is the primary implementation; the
// Distribution interface keeps the equilibrium solver generic in F.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Distribution is a continuous distribution with bounded support, exposing
// exactly what the equilibrium machinery needs: sampling (population
// generation), the CDF F(θ) (win-probability model, Eq 9), and the support
// bounds (θ grid construction).
type Distribution interface {
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
	// CDF returns F(x) = P(θ <= x). It clamps to [0, 1] outside the support.
	CDF(x float64) float64
	// Support returns the bounds [lo, hi] of the distribution.
	Support() (lo, hi float64)
}

// Uniform is the continuous uniform distribution on [Lo, Hi], the θ prior
// used throughout the paper's evaluation.
type Uniform struct {
	Lo, Hi float64
}

var _ Distribution = Uniform{}

// NewUniform returns the uniform distribution on [lo, hi]. The bounds must
// be finite with lo < hi.
func NewUniform(lo, hi float64) (Uniform, error) {
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return Uniform{}, fmt.Errorf("dist: uniform bounds must be finite, got [%v, %v]", lo, hi)
	}
	if !(lo < hi) {
		return Uniform{}, fmt.Errorf("dist: uniform needs lo < hi, got [%v, %v]", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Sample implements Distribution.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*rng.Float64()
}

// CDF implements Distribution.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	}
	return (x - u.Lo) / (u.Hi - u.Lo)
}

// Support implements Distribution.
func (u Uniform) Support() (lo, hi float64) { return u.Lo, u.Hi }

// String implements fmt.Stringer.
func (u Uniform) String() string { return fmt.Sprintf("Uniform[%g, %g]", u.Lo, u.Hi) }
