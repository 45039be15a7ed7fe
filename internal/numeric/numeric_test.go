package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEulerSolveLinearODE(t *testing.T) {
	// dy/dx = y, y(0)=1 -> y(1) = e.
	got := EulerSolve(func(_, y float64) float64 { return y }, 0, 1, 1, 20000)
	if math.Abs(got-math.E) > 1e-3 {
		t.Errorf("Euler e = %v, want %v", got, math.E)
	}
}

func TestRK4SolveLinearODE(t *testing.T) {
	got := RK4Solve(func(_, y float64) float64 { return y }, 0, 1, 1, 100)
	if math.Abs(got-math.E) > 1e-8 {
		t.Errorf("RK4 e = %v, want %v", got, math.E)
	}
}

func TestRK4MoreAccurateThanEuler(t *testing.T) {
	f := func(x, y float64) float64 { return math.Cos(x) * y }
	// y' = cos(x) y, y(0)=1 -> y(x) = exp(sin x).
	want := math.Exp(math.Sin(2))
	euler := EulerSolve(f, 0, 1, 2, 200)
	rk4 := RK4Solve(f, 0, 1, 2, 200)
	if math.Abs(rk4-want) > math.Abs(euler-want) {
		t.Errorf("RK4 error %v should beat Euler error %v", math.Abs(rk4-want), math.Abs(euler-want))
	}
}

func TestSolversBackwardDirection(t *testing.T) {
	// Integrate from 1 back to 0: dy/dx = 2x, y(1) = 1 -> y(0) = 0.
	f := func(x, _ float64) float64 { return 2 * x }
	if got := RK4Solve(f, 1, 1, 0, 100); math.Abs(got) > 1e-9 {
		t.Errorf("RK4 backward = %v, want 0", got)
	}
	if got := EulerSolve(f, 1, 1, 0, 20000); math.Abs(got) > 1e-3 {
		t.Errorf("Euler backward = %v, want ~0", got)
	}
}

func TestTrapezoidAndSimpson(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	wantThird := 1.0 / 3
	if got := Simpson(f, 0, 1, 10); math.Abs(got-wantThird) > 1e-12 {
		t.Errorf("Simpson x^2 = %v, want exactly 1/3 (polynomial degree <= 3)", got)
	}
	// Odd n should be rounded up, not crash.
	if got := Simpson(f, 0, 1, 7); math.Abs(got-wantThird) > 1e-10 {
		t.Errorf("Simpson odd-n x^2 = %v, want 1/3", got)
	}
}

func TestGoldenMax(t *testing.T) {
	x, fx := GoldenMax(func(x float64) float64 { return -(x - 2) * (x - 2) }, 0, 5, 1e-10)
	if math.Abs(x-2) > 1e-6 {
		t.Errorf("argmax = %v, want 2", x)
	}
	if math.Abs(fx) > 1e-10 {
		t.Errorf("max = %v, want 0", fx)
	}
}

func TestGridMaxMultimodal(t *testing.T) {
	// Two bumps; the taller one is at x = 4.
	f := func(x float64) float64 {
		return math.Exp(-(x-1)*(x-1)) + 1.5*math.Exp(-(x-4)*(x-4))
	}
	x, _ := GridMax(f, 0, 6, 200)
	if math.Abs(x-4) > 1e-3 {
		t.Errorf("GridMax picked %v, want 4 (global bump)", x)
	}
}

func TestCoordinateAscentMax(t *testing.T) {
	f := func(x []float64) float64 {
		return -(x[0]-1)*(x[0]-1) - (x[1]-3)*(x[1]-3)
	}
	x, fx, err := CoordinateAscentMax(f, []float64{0, 0}, []float64{5, 5}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-3) > 1e-3 {
		t.Errorf("argmax = %v, want [1, 3]", x)
	}
	if math.Abs(fx) > 1e-5 {
		t.Errorf("max = %v, want 0", fx)
	}
}

func TestCoordinateAscentMaxErrors(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, _, err := CoordinateAscentMax(f, []float64{0}, []float64{1, 2}, 1, 10); err == nil {
		t.Error("mismatched bounds: want error")
	}
	if _, _, err := CoordinateAscentMax(f, nil, nil, 1, 10); err == nil {
		t.Error("empty bounds: want error")
	}
	if _, _, err := CoordinateAscentMax(f, []float64{2}, []float64{1}, 1, 10); err == nil {
		t.Error("inverted bounds: want error")
	}
}

func TestMonotoneInterpIncreasing(t *testing.T) {
	xs := Linspace(0, 10, 11)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	m, err := NewMonotoneInterp(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decreasing() {
		t.Error("interp should be increasing")
	}
	if got := m.At(3.5); math.Abs(got-8) > 1e-12 {
		t.Errorf("At(3.5) = %v, want 8", got)
	}
	if got := m.Inverse(8); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("Inverse(8) = %v, want 3.5", got)
	}
	// Clamping.
	if got := m.At(-5); got != 1 {
		t.Errorf("At(-5) = %v, want clamp to 1", got)
	}
	if got := m.Inverse(100); got != 10 {
		t.Errorf("Inverse(100) = %v, want clamp to 10", got)
	}
}

func TestMonotoneInterpDecreasing(t *testing.T) {
	xs := Linspace(0, 1, 101)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(-3 * x)
	}
	m, err := NewMonotoneInterp(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Decreasing() {
		t.Error("interp should be decreasing")
	}
	for _, x := range []float64{0.1, 0.33, 0.5, 0.77, 0.99} {
		y := m.At(x)
		back := m.Inverse(y)
		if math.Abs(back-x) > 1e-9 {
			t.Errorf("Inverse(At(%v)) = %v", x, back)
		}
	}
}

func TestMonotoneInterpRejectsBadGrids(t *testing.T) {
	if _, err := NewMonotoneInterp([]float64{0}, []float64{1}); err == nil {
		t.Error("short grid: want error")
	}
	if _, err := NewMonotoneInterp([]float64{0, 0, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("non-increasing xs: want error")
	}
	if _, err := NewMonotoneInterp([]float64{0, 1, 2}, []float64{1, 5, 3}); err == nil {
		t.Error("non-monotone ys: want error")
	}
}

func TestMonotoneInterpInverseRoundTripProperty(t *testing.T) {
	xs := Linspace(0, 1, 50)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x*x*x + x // strictly increasing
	}
	m, err := NewMonotoneInterp(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 1)
		y := m.At(x)
		return math.Abs(m.Inverse(y)-x) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 4, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v, want [3]", got)
	}
}

func TestMinMaxNormalize(t *testing.T) {
	cases := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 0.5},
		{-1, 0, 10, 0},
		{11, 0, 10, 1},
		{3, 3, 3, 0}, // degenerate interval
	}
	for _, c := range cases {
		if got := MinMaxNormalize(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("MinMaxNormalize(%v, %v, %v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}
