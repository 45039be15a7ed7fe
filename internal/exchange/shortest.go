package exchange

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// The number kernel: every float of a round's /v1 body, and every integer
// of both of a round's spellings (roundenc.go), is written here, in place
// in the destination's spare capacity. The log's spelling writes no
// decimal float.
//
// Floats take the shortest decimal that parses back to the value — the
// closest one when several are that short, the even one on a tie — from
// Dragonbox (Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
// Conversion Algorithm", 2020), nearest-even policy, κ = 2: one 64×128-bit
// product of the rounding interval's upper end with a 128-bit power of ten
// settles almost every value, and a second, partial product decides the
// rare boundary cases.
// The oracle is encoding/json's spelling of a float64:
// strconv.AppendFloat(·, 'f' or 'e', -1, 64), 'e' below 1e-6 and from
// 1e21, with the exponent's zero padding cleaned up (e-09 → e-9), byte for
// byte; TestShortestFloatSweep and FuzzShortestFloat hold it there.
// Integers have strconv.AppendInt as their oracle (FuzzAppendInt).

// numRoom is the spare capacity a number is written into: the longest
// float is 25 bytes ("-0.00000" and 17 digits) and the layout stores whole
// words past its end; the longest int64 is 20 bytes.
const numRoom = 32

// room returns dst with at least numRoom bytes of spare capacity.
func room(dst []byte) []byte {
	if cap(dst)-len(dst) < numRoom {
		dst = slices.Grow(dst, numRoom)
	}
	return dst
}

const (
	zeros8   = 0x3030_3030_3030_3030 // "00000000"
	zeroDot6 = 0x3030_3030_3030_2E30 // "0.000000"
)

// appendShortest appends the finite f as encoding/json spells a float64.
// The digits d (d·10^k, see shortestDecimal) are spelled as three words at
// once — the top digit and two eight-digit halves, zero padded to 17
// places — and stored whole: what lands past the number's end is cut off
// by its length. A value in [1e-6, 1) — the qualities, payments and scores
// a round mostly holds — is written from the right: "0.000000", then the
// 17 places ending where its digits end (their leading zeros fall on the
// zeros after the point), then "0." again in case they covered it. Every
// other value goes through placeDigits.
func appendShortest(dst []byte, f float64) []byte {
	dst = room(dst)
	n := len(dst)
	b := dst[n : n+numRoom]
	u := math.Float64bits(f)
	i := int(u >> 63) // the sign's byte
	b[0] = '-'
	if u<<1 == 0 {
		b[i] = '0'
		return dst[:n+i+1]
	}
	d, k := shortestDecimal(u&(1<<52-1), int(u>>52)&0x7FF)
	top := d / 1e8 // d < 1e17, so top < 1e9
	lead := uint32(top) / 1e8
	hi, lo := digits8(uint32(top)-lead*1e8), digits8(uint32(d-top*1e8))
	tz := bits.LeadingZeros64(lo) >> 3 // trailing zeros of d, up to 16
	if lo == 0 {
		tz = 8 + bits.LeadingZeros64(hi)>>3
	}
	if x := uint(-15 - k); x < uint(len(pointRange)) && pointRange[x][0] <= d && d < pointRange[x][1] {
		put64(b[i:], zeroDot6)
		p := b[i+int(x):]
		_ = p[16]
		p[0] = '0' + byte(lead)
		put64(p[1:], hi|zeros8)
		put64(p[9:], lo|zeros8)
		b[i], b[i+1] = '0', '.'
		return dst[:n+i+2-k-tz]
	}
	return dst[:n+placeDigits(b, i, d, k, uint64(lead)|hi<<8, hi>>56|lo<<8, lo>>56, tz)]
}

// pointRange[-15-k] bounds the digits d that spell a value in [1e-6, 1)
// as 0.ddd with the 17 places ending where the digits end: 10^(-6-k) <= d
// < 10^-k, for k = -15…-22 (beyond, the places would start before the
// point or after the prefix's zeros).
var pointRange = [8][2]uint64{
	{1e9, 1e15}, {1e10, 1e16}, {1e11, 1e17}, {1e12, 1e18},
	{1e13, 1e19}, {1e14, math.MaxUint64}, {1e15, math.MaxUint64}, {1e16, math.MaxUint64},
}

// placeDigits lays out d·10^k, whose 17 zero-padded places are the words
// w0 w1 w2 (digit values, the first place in w0's lowest byte) and which
// ends in tz zeros, from b[i] on, and returns the end of the text.
func placeDigits(b []byte, i int, d uint64, k int, w0, w1, w2 uint64, tz int) int {
	nd := decimalLen(d)
	dp := nd + k   // digits in front of the decimal point
	sig := nd - tz // significant digits
	// Move the places down by the 17-nd leading zeros; vacated places read
	// '0'. (w<<1<<y is w<<(64-z), and 0 for z = 0.)
	z := uint(17-nd) * 8
	for z >= 64 {
		w0, w1, w2, z = w1, w2, 0, z-64
	}
	z, y := z&63, (63-z)&63
	w0, w1, w2 = w0>>z|w1<<1<<y|zeros8, w1>>z|w2<<1<<y|zeros8, w2>>z|zeros8

	var j int // end of the number
	switch {
	case dp < -5 || dp > 21: // d.ddde±x
		put64(b[i+1:], w0)
		put64(b[i+9:], w1)
		put64(b[i+17:], w2)
		b[i] = b[i+1]
		j = i + 1
		if sig > 1 {
			b[j] = '.'
			j += sig
		}
		x := dp - 1
		b[j], b[j+1] = 'e', '+'
		if x < 0 {
			b[j+1], x = '-', -x
		}
		j += 2
		if x >= 100 {
			b[j] = '0' + byte(x/100)
			j++
		}
		if x >= 10 {
			b[j] = '0' + byte(x/10%10)
			j++
		}
		b[j] = '0' + byte(x%10)
		j++
	case dp <= 0: // 0.000ddd
		put64(b[i:], zeroDot6)
		j = i + 2 - dp
		put64(b[j:], w0)
		put64(b[j+8:], w1)
		put64(b[j+16:], w2)
		j += sig
	case dp >= sig: // ddd000
		put64(b[i:], w0)
		put64(b[i+8:], w1)
		put64(b[i+16:], w2)
		j = i + dp
	default: // ddd.ddd
		put64(b[i+1:], w0)
		put64(b[i+9:], w1)
		put64(b[i+17:], w2)
		if dp < 8 { // the integer part and the point in one word
			m := uint64(1)<<(8*dp) - 1
			put64(b[i:], w0&m|'.'<<(8*dp)|w0<<8&^(m<<8|0xFF))
		} else {
			copy(b[i:i+dp], b[i+1:])
			b[i+dp] = '.'
		}
		j = i + 1 + sig
	}
	return j
}

// appendInt appends v as strconv.AppendInt(dst, v, 10) does, two digits at
// a time from the right, in place.
func appendInt(dst []byte, v int64) []byte {
	dst = room(dst)
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	switch { // a round's node IDs are often this short
	case u < 10:
		return append(dst, '0'+byte(u))
	case u < 100:
		return append(dst, digitPairs[2*u], digitPairs[2*u+1])
	}
	n := len(dst)
	j := n + decimalLen(u)
	b := dst[n:j]
	i := len(b)
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[1], b[0] = digitPairs[2*u+1], digitPairs[2*u]
	} else {
		b[0] = '0' + byte(u)
	}
	return dst[:j]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10u64[n] is 10^n.
var pow10u64 = func() (tab [20]uint64) {
	tab[0] = 1
	for n := 1; n < len(tab); n++ {
		tab[n] = 10 * tab[n-1]
	}
	return tab
}()

// decimalLen is the number of decimal digits of v > 0: ⌊log10 2^len(v)⌋
// (len·1233 >> 12) is that count or one less.
func decimalLen(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12
	if v >= pow10u64[n] {
		n++
	}
	return n
}

// digits8 returns the eight decimal digits of v < 1e8, zero padded, one a
// byte as values 0–9 (add zeros8 for ASCII), the most significant in the
// lowest byte: the two four-digit halves, then their two-digit quarters,
// then the digits are split side by side in the lanes of one word (x/100
// is x·5243>>19 below 10⁴, x/10 is x·103>>10 below 100).
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	q := x * 5243 >> 19 & 0x0000007F_0000007F
	y := q | (x-100*q)<<16
	t := y * 103 >> 10 & 0x000F_000F_000F_000F
	return t | (y-10*t)<<8
}

// put64 stores w at b[:8], lowest byte first (one store once compiled;
// encoding/binary is the log's, not this package's).
func put64(b []byte, w uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	b[4], b[5], b[6], b[7] = byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
}

// shortestDecimal returns (d, k) with d·10^k the shortest decimal in the
// rounding interval of the positive finite double with the given fraction
// and biased exponent fields, the closest such, the even one on a tie. d
// may end in zeros.
//
// With f = c·2^q, the interval is f ± 2^(q-1), its ends included when c
// is even. Scaled by 10^-m (m = ⌊log10 2^q⌋ - κ), its right end has the
// integer part z and its width is δ = 2^q·10^-m, in [100, 1000). If the
// multiple of 1000 at or below z lies inside (z mod 1000 below δ), it is
// the answer; otherwise the answer is the interval's centre, z - δ/2,
// rounded to a multiple of 100. Only where z mod 1000 meets δ or 0, or the
// centre is within a unit of a rounding boundary, is the exact product
// asked for (mulParity).
func shortestDecimal(frac uint64, exp int) (d uint64, k int) {
	c, q := frac, -1074 // subnormal: f = frac·2^-1074
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if s := uint(-q); s <= 52 && c&(1<<s-1) == 0 {
			return c >> s, 0 // an integer below 2^53 is its own digits
		}
		if frac == 0 && exp > 1 {
			return shorterInterval(q)
		}
	}
	m := q*1262611>>22 - 2 // ⌊log10 2^q⌋ - κ
	g := &pow10[-m-pow10Min]
	beta := uint(q+floorLog2Pow10(-m)) & 63 // 6…9; the masks spare the shifts their range checks
	delta := g[0] >> (63 - beta&63)
	z, exact := mulHigh(g, (2*c|1)<<beta)
	even := c&1 == 0

	d = z / 1000
	r := z - 1000*d
	// The one-digit-longer answer, when no boundary is near: 10d + (r -
	// δ/2 + 50)/100, computed beside d rather than after it.
	t := z - delta/2 + 50
	short := t / 100
	if r != delta && r != 0 && t != 100*short {
		k = m + 3
		if r > delta {
			d, k = short, m+2
		}
		return d, k
	}
	switch {
	case r < delta:
		if r != 0 || !exact || even {
			return d, m + 3
		}
		d, r = d-1, 1000 // the right end, excluded: one step down
	case r == delta:
		if parity, exact := mulParity(g, 2*c-1, beta); parity || exact && even {
			return d, m + 3
		}
	}
	dist := r - delta/2 + 50
	yOdd := (dist^50)&1 != 0
	step := dist / 100
	d = 10*d + step
	if dist == 100*step { // f·10^-m - d is a half or about it: ask exactly
		if parity, exact := mulParity(g, 2*c, beta); parity != yOdd || exact && d&1 != 0 {
			d--
		}
	}
	return d, m + 2
}

// shorterInterval is shortestDecimal for f = 2^52·2^q: the double below is
// half as far away as the one above, so the interval [f - 2^(q-2), f +
// 2^(q-1)] is asymmetric (both ends belong to it: 2^52 is even) and its
// ends are read off the power of ten directly.
func shorterInterval(q int) (d uint64, k int) {
	m := (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
	g := &pow10[-m-pow10Min]
	beta := uint(q + floorLog2Pow10(-m)) // 0…3
	lower := (g[0] - g[0]>>54) >> (11 - beta)
	upper := (g[0] + g[0]>>53) >> (11 - beta)
	if q < 2 || q > 3 { // the left end scales to an integer only there
		lower++
	}
	if d = upper / 10; d*10 >= lower {
		return d, m + 1
	}
	d = (g[0]>>(10-beta) + 1) / 2 // f·10^-m rounded up
	if q == -77 && d&1 != 0 {     // the one exact tie: to even
		d--
	} else if d < lower {
		d++
	}
	return d, m
}

// mulHigh returns the integer part of u·g/2^128 and whether it is exact,
// as far as the upper 128 bits of the 192-bit product tell.
func mulHigh(g *[2]uint64, u uint64) (uint64, bool) {
	hi, lo := bits.Mul64(u, g[0])
	mid, _ := bits.Mul64(u, g[1])
	lo, carry := bits.Add64(lo, mid, 0)
	return hi + carry, lo == 0
}

// mulParity returns the parity of the integer part of u·g/2^(128-beta) and
// whether that product is an integer, from the lower 128 bits of u·g.
func mulParity(g *[2]uint64, u uint64, beta uint) (parity, exact bool) {
	hi, lo := bits.Mul64(u, g[1])
	hi += u * g[0]
	return hi>>(64-beta)&1 != 0, hi<<beta|lo>>(64-beta) == 0
}

// floorLog2Pow10 is ⌊log2 10^e⌋ for |e| <= 1233.
func floorLog2Pow10(e int) int { return e * 1741647 >> 19 }

// pow10[e-pow10Min] is 10^e to 128 significant bits, rounded up:
// g = ⌈10^e·2^(127-⌊log2 10^e⌋)⌉ as {high, low} words, for every e = -m a
// double can ask for. The 619 entries are computed from that definition
// when the package loads (about a quarter of a millisecond) rather than
// committed as a literal that a test would have to rebuild the same way.
const pow10Min, pow10Max = -292, 326

var pow10 = func() (tab [pow10Max - pow10Min + 1][2]uint64) {
	one, ten, low64 := big.NewInt(1), big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	var num, den, rem, word big.Int
	p := big.NewInt(1) // 10^n: entry n is p/1 scaled, entry -n is 1/p scaled
	for n := 0; n <= pow10Max; n++ {
		for _, e := range [2]int{n, -n} {
			if e < pow10Min {
				continue
			}
			num.Set(p)
			den.Set(one)
			if e < 0 {
				num.Set(one)
				den.Set(p)
			}
			if s := 127 - floorLog2Pow10(e); s >= 0 {
				num.Lsh(&num, uint(s))
			} else {
				den.Lsh(&den, uint(-s))
			}
			if num.QuoRem(&num, &den, &rem); rem.Sign() != 0 {
				num.Add(&num, one)
			}
			tab[e-pow10Min] = [2]uint64{word.Rsh(&num, 64).Uint64(), word.And(&num, low64).Uint64()}
		}
		p.Mul(p, ten)
	}
	return tab
}()
