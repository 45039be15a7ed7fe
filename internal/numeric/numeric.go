// Package numeric provides the small numerical toolbox the FMore equilibrium
// computation needs: explicit ODE integrators (the paper prescribes the Euler
// method, §IV Eq (13)-(14); RK4 is provided as a higher-order cross-check),
// quadrature, scalar maximization, and monotone interpolation with inversion.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadGrid reports an interpolation grid that is not strictly monotone or
// too short.
var ErrBadGrid = errors.New("numeric: grid must be strictly monotone with >= 2 points")

// ODEFunc is the right-hand side dy/dx = f(x, y) of a first-order ODE.
type ODEFunc func(x, y float64) float64

// EulerSolve integrates dy/dx = f from x0 to x1 with initial value y0 using
// the explicit Euler method with the given number of steps. This is the
// numerical method the paper names for solving the bid-payment ODE (Eq 12).
func EulerSolve(f ODEFunc, x0, y0, x1 float64, steps int) float64 {
	if steps < 1 {
		steps = 1
	}
	h := (x1 - x0) / float64(steps)
	x, y := x0, y0
	for i := 0; i < steps; i++ {
		y += h * f(x, y)
		x = x0 + float64(i+1)*h
	}
	return y
}

// RK4Solve integrates dy/dx = f from x0 to x1 with initial value y0 using the
// classical fourth-order Runge–Kutta method (the paper's suggested
// alternative to Euler).
func RK4Solve(f ODEFunc, x0, y0, x1 float64, steps int) float64 {
	if steps < 1 {
		steps = 1
	}
	h := (x1 - x0) / float64(steps)
	x, y := x0, y0
	for i := 0; i < steps; i++ {
		k1 := f(x, y)
		k2 := f(x+h/2, y+h/2*k1)
		k3 := f(x+h/2, y+h/2*k2)
		k4 := f(x+h, y+h*k3)
		y += h / 6 * (k1 + 2*k2 + 2*k3 + k4)
		x = x0 + float64(i+1)*h
	}
	return y
}

// Simpson integrates f over [a, b] with Simpson's composite rule; n is
// rounded up to the next even number of intervals.
func Simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// GoldenMax maximizes a unimodal function f on [a, b] by golden-section
// search and returns the argmax and maximum value. tol is the absolute
// bracket tolerance on x.
func GoldenMax(f func(float64) float64, a, b, tol float64) (x, fx float64) {
	if tol <= 0 {
		tol = 1e-9
	}
	const invPhi = 0.6180339887498949 // 1/φ
	lo, hi := a, b
	x1 := hi - invPhi*(hi-lo)
	x2 := lo + invPhi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for hi-lo > tol {
		if f1 < f2 {
			lo = x1
			x1, f1 = x2, f2
			x2 = lo + invPhi*(hi-lo)
			f2 = f(x2)
		} else {
			hi = x2
			x2, f2 = x1, f1
			x1 = hi - invPhi*(hi-lo)
			f1 = f(x1)
		}
	}
	x = (lo + hi) / 2
	return x, f(x)
}

// GridMax maximizes f on [a, b] by dense grid evaluation followed by a
// golden-section polish around the best grid cell. Unlike GoldenMax it does
// not require unimodality; the grid pins the basin, the polish refines it.
func GridMax(f func(float64) float64, a, b float64, gridPoints int) (x, fx float64) {
	if gridPoints < 3 {
		gridPoints = 3
	}
	h := (b - a) / float64(gridPoints-1)
	bestX, bestF := a, math.Inf(-1)
	for i := 0; i < gridPoints; i++ {
		xi := a + float64(i)*h
		if v := f(xi); v > bestF {
			bestX, bestF = xi, v
		}
	}
	lo := math.Max(a, bestX-h)
	hi := math.Min(b, bestX+h)
	px, pf := GoldenMax(f, lo, hi, (hi-lo)*1e-8)
	if pf > bestF {
		return px, pf
	}
	return bestX, bestF
}

// CoordinateAscentMax maximizes f over a box by cyclic coordinate ascent,
// using GridMax in each coordinate. It returns the argmax vector and value.
// It is used to solve the multi-dimensional quality choice
// argmax s(q1..qm) − c(q1..qm, θ) of Che's Theorem 1 / Proposition 3.
func CoordinateAscentMax(f func([]float64) float64, lo, hi []float64, sweeps, gridPoints int) ([]float64, float64, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, 0, fmt.Errorf("numeric: box bounds must be equal-length and non-empty, got %d and %d", len(lo), len(hi))
	}
	for j := range lo {
		if !(lo[j] <= hi[j]) {
			return nil, 0, fmt.Errorf("numeric: inverted box bound in dim %d: [%v, %v]", j, lo[j], hi[j])
		}
	}
	if sweeps < 1 {
		sweeps = 1
	}
	x := make([]float64, len(lo))
	for j := range x {
		x[j] = (lo[j] + hi[j]) / 2
	}
	cur := f(x)
	for s := 0; s < sweeps; s++ {
		improved := false
		for j := range x {
			j := j
			line := func(v float64) float64 {
				old := x[j]
				x[j] = v
				val := f(x)
				x[j] = old
				return val
			}
			bx, bf := GridMax(line, lo[j], hi[j], gridPoints)
			if bf > cur+1e-15 {
				x[j] = bx
				cur = bf
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return x, cur, nil
}

// MonotoneInterp is a piecewise-linear interpolant through strictly monotone
// (x, y) data. It supports both increasing and decreasing y and provides the
// inverse map, which the equilibrium computation uses to invert the score
// function X(θ) (H(x) = 1 − F(X⁻¹(x)) in Theorem 1).
type MonotoneInterp struct {
	xs, ys     []float64
	decreasing bool
}

// NewMonotoneInterp builds an interpolant over strictly increasing xs and
// strictly monotone ys. Both slices are copied.
func NewMonotoneInterp(xs, ys []float64) (*MonotoneInterp, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil, ErrBadGrid
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return nil, fmt.Errorf("%w: xs not strictly increasing at %d", ErrBadGrid, i)
		}
	}
	inc, dec := true, true
	for i := 1; i < len(ys); i++ {
		if !(ys[i] > ys[i-1]) {
			inc = false
		}
		if !(ys[i] < ys[i-1]) {
			dec = false
		}
	}
	if !inc && !dec {
		return nil, fmt.Errorf("%w: ys not strictly monotone", ErrBadGrid)
	}
	m := &MonotoneInterp{
		xs:         append([]float64(nil), xs...),
		ys:         append([]float64(nil), ys...),
		decreasing: dec,
	}
	return m, nil
}

// At evaluates the interpolant at x, clamping outside the grid.
func (m *MonotoneInterp) At(x float64) float64 {
	n := len(m.xs)
	switch {
	case x <= m.xs[0]:
		return m.ys[0]
	case x >= m.xs[n-1]:
		return m.ys[n-1]
	}
	i := searchSegment(m.xs, x)
	t := (x - m.xs[i]) / (m.xs[i+1] - m.xs[i])
	return m.ys[i] + t*(m.ys[i+1]-m.ys[i])
}

// Inverse evaluates the inverse interpolant at y, clamping outside the range.
func (m *MonotoneInterp) Inverse(y float64) float64 {
	n := len(m.ys)
	loY, hiY := m.ys[0], m.ys[n-1]
	if m.decreasing {
		loY, hiY = hiY, loY
	}
	switch {
	case y <= loY:
		if m.decreasing {
			return m.xs[n-1]
		}
		return m.xs[0]
	case y >= hiY:
		if m.decreasing {
			return m.xs[0]
		}
		return m.xs[n-1]
	}
	// Binary search over segments in the y direction.
	lo, hi := 0, n-2
	for lo < hi {
		mid := (lo + hi) / 2
		y1 := m.ys[mid+1]
		var pastSegment bool
		if m.decreasing {
			pastSegment = y < y1 // target lies toward larger x
		} else {
			pastSegment = y > y1
		}
		if pastSegment {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	y0, y1 := m.ys[i], m.ys[i+1]
	t := 0.0
	if y1 != y0 {
		t = (y - y0) / (y1 - y0)
	}
	return m.xs[i] + t*(m.xs[i+1]-m.xs[i])
}

// Range returns the y-range of the interpolant in ascending order.
func (m *MonotoneInterp) Range() (lo, hi float64) {
	a, b := m.ys[0], m.ys[len(m.ys)-1]
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Decreasing reports whether y decreases with x.
func (m *MonotoneInterp) Decreasing() bool { return m.decreasing }

// searchSegment returns i such that xs[i] <= x < xs[i+1], for x strictly
// inside the grid.
func searchSegment(xs []float64, x float64) int {
	lo, hi := 0, len(xs)-2
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid+1] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	h := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*h
	}
	out[n-1] = b
	return out
}

// MinMaxNormalize maps v from [lo, hi] to [0, 1], clamping at the ends; it is
// the normalization the walk-through example (§III-B) applies to bids.
func MinMaxNormalize(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	t := (v - lo) / (hi - lo)
	switch {
	case t < 0:
		return 0
	case t > 1:
		return 1
	default:
		return t
	}
}
