package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewUniformValidation(t *testing.T) {
	cases := []struct {
		lo, hi float64
	}{
		{1, 1},
		{2, 1},
		{math.NaN(), 1},
		{0, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := NewUniform(c.lo, c.hi); err == nil {
			t.Errorf("NewUniform(%v, %v): expected error", c.lo, c.hi)
		}
	}
	if _, err := NewUniform(-1, 3); err != nil {
		t.Fatalf("NewUniform(-1, 3): %v", err)
	}
}

func TestUniformCDFAndSupport(t *testing.T) {
	u, err := NewUniform(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := u.Support()
	if lo != 1 || hi != 3 {
		t.Fatalf("Support() = (%v, %v), want (1, 3)", lo, hi)
	}
	for _, c := range []struct{ x, want float64 }{
		{0, 0}, {1, 0}, {2, 0.5}, {3, 1}, {4, 1},
	} {
		if got := u.CDF(c.x); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestUniformSampleStaysInSupportAndMatchesMean(t *testing.T) {
	u, err := NewUniform(0.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		x := u.Sample(rng)
		if x < 0.5 || x >= 1.5 {
			t.Fatalf("sample %v outside [0.5, 1.5)", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Errorf("empirical mean %v too far from 1", mean)
	}
}
