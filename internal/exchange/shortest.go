package exchange

import (
	"math"
	"math/big"
	"math/bits"
)

// appendShortest appends the finite f as encoding/json spells a float64:
// the shortest decimal that parses back to f (the closest one when several
// are that short, the even one on a tie), written as digits — 'f' — unless
// the value is below 1e-6 or at least 1e21, then in ES6 'e' notation with
// no zero padding in the exponent. The oracle is strconv.AppendFloat(·,
// 'f' or 'e', -1, 64) plus encoding/json's e-09 → e-9 clean-up, byte for
// byte; FuzzShortestFloat and TestShortestFloatSweep hold it there.
//
// The digits are Schubfach's (Giulietti, "The Schubfach way to render
// doubles", 2020): with f = c·2^q and k = ⌊log10 2^q⌋, the rounding
// interval's ends and f itself are scaled by 10^-k in one 64×128-bit
// multiply each, which leaves a 17-digit candidate s and its successor, and
// the one-digit-shorter pair is tried first. Both notations are laid out
// around the same digits in one 48-byte scratch whose every other byte is
// already '0': eight bytes of room in front for "-0.00000", up to 17 digits
// ending at end, then the zeros of an integer below 1e21 or the exponent.
func appendShortest(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u<<1 == 0 {
		if u != 0 {
			dst = append(dst, '-')
		}
		return append(dst, '0')
	}
	d, k := shortestDecimal(u&(1<<52-1), int(u>>52)&0x7FF)

	const end = 8 + 17
	var buf [48]byte
	copy(buf[:], "000000000000000000000000000000000000000000000000")
	i, j := end-8, end
	put64(buf[i:j], digits8(uint32(d%1e8)))
	if hi := d / 1e8; hi != 0 {
		i -= 9
		buf[i] = '0' + byte(hi/1e8)
		put64(buf[i+1:i+9], digits8(uint32(hi%1e8)))
	}
	for buf[i] == '0' { // d is not zero
		i++
	}
	dp := j - i + k // digits in front of the decimal point
	for buf[j-1] == '0' {
		j--
	}
	switch nd := j - i; {
	case dp < -5 || dp > 21: // d.ddde±x
		if nd > 1 {
			buf[i-1], buf[i] = buf[i], '.'
			i--
		}
		x := dp - 1
		buf[j], buf[j+1] = 'e', '+'
		if x < 0 {
			buf[j+1], x = '-', -x
		}
		j += 2
		if x >= 100 {
			buf[j] = '0' + byte(x/100)
			j++
		}
		if x >= 10 {
			buf[j] = '0' + byte(x/10%10)
			j++
		}
		buf[j] = '0' + byte(x%10)
		j++
	case dp <= 0: // 0.000ddd
		i += dp - 2
		buf[i+1] = '.'
	case dp >= nd: // ddd000
		j = i + dp
	default: // ddd.ddd
		copy(buf[i-1:], buf[i:i+dp])
		i--
		buf[i+dp] = '.'
	}
	if u>>63 != 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:j]...)
}

// digits8 returns v < 1e8 as eight ASCII digits, zero padded, the most
// significant in the lowest byte: the two four-digit halves, then their
// two-digit quarters, then the digits are split side by side in the lanes
// of one word (x/100 is x·5243>>19 below 10⁴, x/10 is x·103>>10 below 100).
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	q := x * 5243 >> 19 & 0x0000007F_0000007F
	y := q | (x-100*q)<<16
	t := y * 103 >> 10 & 0x000F_000F_000F_000F
	return t | (y-10*t)<<8 | 0x3030_3030_3030_3030
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
// and biased exponent fields. d may end in zeros.
func shortestDecimal(frac uint64, exp int) (d uint64, k int) {
	c, q := frac, -1074 // subnormal: f = frac·2^-1074
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if s := uint(-q); s <= 52 && c&(1<<s-1) == 0 {
			return c >> s, 0 // an integer below 2^53 is its own digits
		}
	}
	// The interval around f = c·2^q in units of 2^(q-2): [4c-2, 4c+2],
	// except that the double below a power of two is half as far away (not
	// below the smallest normal one, whose neighbour is a subnormal). Its
	// ends belong to it when c is even — round-half-even parses them to f.
	cbl, cb, cbr := 4*c-2, 4*c, 4*c+2
	k = q * 1262611 >> 22 // ⌊log10 2^q⌋
	if frac == 0 && exp > 1 {
		cbl = 4*c - 1
		k = (q*1262611 - 524031) >> 22 // ⌊log10 ¾·2^q⌋
	}
	g := &pow10[-k-pow10Min]
	h := uint(q + floorLog2Pow10(-k) + 1) // 1…4: cb·2^h·g/2^128 = 4f·10^-k
	lower, vb, upper := scaleToOdd(g, cbl<<h), scaleToOdd(g, cb<<h), scaleToOdd(g, cbr<<h)
	if c&1 != 0 {
		lower++
		upper--
	}
	// A decimal t·10^k is in the interval iff lower <= 4t <= upper. At most
	// one multiple of ten is; failing that, s = ⌊f·10^-k⌋ or s+1 is, and
	// when both are, the closer one wins, the even one on a tie.
	s := vb / 4
	if sp := s / 10; sp != 0 {
		below, above := lower <= 40*sp, 40*sp+40 <= upper
		if below != above {
			if above {
				sp++
			}
			return sp, k + 1
		}
	}
	below, above := lower <= 4*s, 4*s+4 <= upper
	if below == above {
		above = vb > 4*s+2 || vb == 4*s+2 && s&1 != 0
	}
	if above {
		s++
	}
	return s, k
}

// scaleToOdd returns ⌊cp·g/2^128⌋ rounded to odd: with the sticky bit in
// bit 0 the comparisons above come out as they would on the exact product.
func scaleToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	y0, carry := bits.Add64(y0, x1, 0)
	y1 += carry
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}

// floorLog2Pow10 is ⌊log2 10^e⌋ for |e| <= 1233.
func floorLog2Pow10(e int) int { return e * 1741647 >> 19 }

// pow10[e-pow10Min] is 10^e to 128 significant bits, rounded up:
// g = ⌈10^e·2^(127-⌊log2 10^e⌋)⌉ as {high, low} words, for every e = -k a
// double can ask for. The 617 entries are computed from that definition
// when the package loads (about a quarter of a millisecond) rather than
// committed as a literal that a test would have to rebuild the same way.
const pow10Min, pow10Max = -292, 324

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
