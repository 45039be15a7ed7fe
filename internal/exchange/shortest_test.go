package exchange

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"fmore/internal/auction"
)

// oracleFloat is the kernel's oracle: what encoding/json writes for a finite
// float64 — strconv's shortest digits, 'e' notation below 1e-6 and from
// 1e21, and the exponent's zero padding cleaned up (e-09 → e-9).
func oracleFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// shortestChecker compares the kernel with the oracle on one value at a
// time, into recycled buffers; NaN and ±Inf never reach the kernel.
type shortestChecker struct {
	t         testing.TB
	got, want []byte
	n         int
}

func (c *shortestChecker) check(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	c.n++
	c.got, c.want = appendShortest(c.got[:0], f), oracleFloat(c.want[:0], f)
	if string(c.got) != string(c.want) {
		c.t.Fatalf("appendShortest(%#016x) = %s, strconv writes %s", math.Float64bits(f), c.got, c.want)
	}
}

// neighbours checks f, the double on either side of it, and all three
// negated.
func (c *shortestChecker) neighbours(f float64) {
	for _, v := range []float64{f, math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1))} {
		c.check(v)
		c.check(-v)
	}
}

// FuzzShortestFloat holds the float kernel to its oracle on arbitrary bit
// patterns: a round record's bytes stay what encoding/json would have
// written only while the two agree, in both notations. The seeds are where a shortest-decimal printer goes wrong: the
// zeros, the ends of the range, the smallest normal number (whose lower
// neighbour is a subnormal), 2^52 and 2^53 (where the integer fast path
// ends), both notation switches with the double either side of each, powers
// of ten that are not doubles (1e22 is the last that is; 1e23 is a
// round-half-even tie), the one-digit negative exponents, and the values on
// which the sweep caught a mutant the other seeds let through (an interval
// end that belongs to an even significand only, a candidate exactly half
// way, a power of two whose lower neighbour is closer).
func FuzzShortestFloat(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.3, 5e-324, 1e-323, math.MaxFloat64, -math.MaxFloat64,
		2.2250738585072014e-308, 2.225073858507201e-308, 2.225073858507202e-308,
		1 << 52, 1<<52 + 0.5, 1 << 53, 1<<53 + 2, 1 << 60,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 9.999999999999999e20,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999999999999e-7,
		1e22, 1e23, 8.41e21, 9007199254740993e5,
		1e-7, 1.5e-7, 1e-8, 1.25e-8, 1e-9, 123456789e-17, 1e-10, 1e-100, 1.7976931348623157e-300,
		0.5, 0.25, 100, 1e15, 1e16, 123456789.125, 4.35, 0.000001, 299792458, 5e-7,
		-23347088702154068, 30632045354131690, 4.896793764822388e+52, -8.487762875421297e+297,
		111392265118907.38, -170671533827397.12, 1.7800590868057611e-307, 4.5569512622227484e-305,
	}
	for _, v := range seeds {
		f.Add(floatBits(v))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		c := shortestChecker{t: t}
		c.check(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	})
}

// TestShortestFloatSweep is the seeded tier-1 sweep: over two million
// values from the places the kernel's branches live — arbitrary bit
// patterns, the uniform qualities and payments the workloads bid, the
// additive and Cobb-Douglas scores of such bids (what a round record mostly
// holds), every binade's power of two with both neighbours (the irregular
// interval, and all 617 table entries), every power of ten, short decimals
// (whose candidates end in zeros) and small integers.
func TestShortestFloatSweep(t *testing.T) {
	c := shortestChecker{t: t}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1_000_000; i++ {
		c.check(math.Float64frombits(rng.Uint64()))
	}
	unit := func() float64 { return unitQuality(rng) }
	for i := 0; i < 400_000; i++ {
		c.check(unit())
	}
	additive, err := auction.NewAdditive(0.4, 0.35, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cobb, err := auction.NewCobbDouglas(1, 0.5, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		q, p := []float64{unit(), unit(), unit()}, 0.3*unit()
		for _, rule := range []auction.ScoringRule{additive, cobb} {
			c.check(rule.Value(q))
			c.check(rule.Value(q) - p)
		}
	}
	for e := -1074; e <= 1023; e++ {
		c.neighbours(math.Ldexp(1, e))
	}
	for e := -324; e <= 308; e++ {
		p, _ := new(big.Float).SetString("1e" + strconv.Itoa(e))
		v, _ := p.Float64()
		c.neighbours(v)
		c.neighbours(5 * v)
	}
	for i := 0; i < 100_000; i++ {
		c.check(float64(rng.Intn(100000)) / 1000)
		c.check(float64(rng.Int63n(1 << 53)))
		c.check(math.Ldexp(float64(rng.Int63n(1<<53)), rng.Intn(40)-70))
	}
	if c.n < 2_000_000 {
		t.Fatalf("the sweep checked %d values, want at least two million", c.n)
	}
}

// unitQuality is a quality or payment scale as the workloads draw them, and
// churnScore the score of a uniform two-dimensional bid — what a
// round_churn_durable record mostly holds.
func unitQuality(rng *rand.Rand) float64 { return 0.05 + 0.95*rng.Float64() }

func churnScore(rng *rand.Rand) float64 {
	return 0.5*unitQuality(rng) + 0.5*unitQuality(rng) - 0.3*unitQuality(rng)
}

// BenchmarkShortestFloat prices one float on the same 1,024 inputs — the
// scores of uniform two-dimensional bids, what a round record mostly holds
// — through the kernel and through its oracle's strconv call.
func BenchmarkShortestFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	inputs := make([]float64, 1024)
	for i := range inputs {
		inputs[i] = churnScore(rng)
	}
	buf := make([]byte, 0, 32)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendShortest(buf[:0], inputs[i%len(inputs)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], inputs[i%len(inputs)], 'f', -1, 64)
		}
	})
}
