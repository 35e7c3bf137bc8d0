package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

//go:generate go run mkpow10.go

// appendFloat appends f in encoding/json's float64 layout: the shortest
// decimal that reads back as f (the closest such decimal when there
// are several), in 'f' form for zero and for magnitudes in [1e-6,
// 1e21) and in 'e' form elsewhere, with the exponent written without
// a leading zero ("1e-7", "1e+21", "5e-324"). The caller has already
// refused NaN and ±Inf. TestAppendFloatParity and
// FuzzAppendFloatParity pin the output to json.Marshal.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
		b &^= 1 << 63
	}
	abs := math.Float64frombits(b)
	if abs < 1<<53 {
		// An integer below 2^53 is its own shortest form: its
		// neighbours are at most 1 away, so no shorter decimal reads
		// back as it.
		if u := uint64(abs); float64(u) == abs {
			return strconv.AppendUint(dst, u, 10)
		}
	}
	m, e := shortestDecimal(b)
	return appendDecimal(dst, m, e, abs < 1e-6 || abs >= 1e21)
}

// shortestDecimal returns the shortest decimal m×10^e that reads back
// as the positive finite float64 with bits b, choosing the one closest
// to it when there are several and the even one on a tie. m has no
// trailing zeros.
//
// It is Raffaello Giulietti's Schubfach algorithm ("The Schubfach way
// to render doubles", 2020) over 128-bit powers of ten (pow10.go):
// the float's rounding interval is scaled by 10^-k, where 10^k is the
// largest power of ten not above its width, so that the interval
// holds at most one multiple of 10 and at least one integer. Three
// 128-bit products and a few comparisons give the answer, with no
// digit-by-digit search.
func shortestDecimal(b uint64) (m uint64, e int) {
	const fracBits = 52
	frac := b & (1<<fracBits - 1)
	exp := int(b >> fracBits)
	c, q := frac, -1074 // subnormal: c×2^q with no hidden bit
	if exp != 0 {
		c, q = frac|1<<fracBits, exp-1075
	}
	// The interval of reals that round to c×2^q, in units of 2^(q-2):
	// [cbl, cbr] around cb, closed when c is even (round half to even
	// keeps the endpoints). Its lower half is half as wide at a power
	// of two, where the exponent steps down.
	closer := frac == 0 && exp > 1
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	var k int
	if closer {
		cbl++
		k = (q*1262611 - 524031) >> 22 // floor(log10(3/4 × 2^q))
	} else {
		k = (q * 1262611) >> 22 // floor(log10(2^q))
	}
	h := q + ((-k)*1741647)>>19 + 1 // q + floor(log2(10^-k)) + 1, in [1, 4]
	g := &pow10Tab[-k-pow10Min]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, cb<<h)
	vbr := roundToOdd(g, cbr<<h)
	if c&1 != 0 {
		vbl++
		vbr--
	}
	// vbl, vb and vbr are the interval's ends and c×2^q times
	// 4×10^-k, rounded to odd, so comparing them with multiples of
	// two is exact.
	s := vb >> 2
	if s >= 10 {
		// One digit fewer: at most one multiple of 40 lies within.
		sp := s / 10
		upIn := vbl <= 40*sp
		wpIn := 40*sp+40 <= vbr
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return trimZeros(sp, k+1)
		}
	}
	// Full length: s or s+1, whichever is inside, else the closer.
	uIn := vbl <= 4*s
	wIn := 4*s+4 <= vbr
	if uIn != wIn {
		if wIn {
			s++
		}
		return trimZeros(s, k)
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return trimZeros(s, k)
}

// roundToOdd returns floor(g×cp / 2^128) with its lowest bit set when
// the division is inexact. g exceeds the scaled power of ten by less
// than one unit, so g×cp exceeds the exact product by less than
// cp < 2^59, below z's lowest bit; for the cp a float64 produces, the
// exact quotient is an integer or farther than that from one
// (Giulietti's analysis), so z is zero exactly when the quotient is.
// TestRoundToOdd checks it against math/big.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	z, carry := bits.Add64(yLo, xHi, 0)
	v := yHi + carry
	if z != 0 {
		v |= 1
	}
	return v
}

// Multiplicative inverses of 5, 5^2, 5^4 and 5^8 modulo 2^64: for n a
// multiple of 5^j, n×inv5j (mod 2^64) is n/5^j exactly.
const (
	inv5   = 0xcccccccccccccccd
	inv5p2 = 0x8f5c28f5c28f5c29
	inv5p4 = 0xd288ce703afb7e91
	inv5p8 = 0xc767074b22e90e21
)

// trimZeros strips m's trailing decimal zeros into the exponent e. A
// multiple of 10^j times the inverse of 5^j, rotated right by j, is
// the quotient, at most MaxUint64/10^j; any other m lands above that.
// m ≥ 1 has at most 17 digits, so 10^8 divides it at most twice.
func trimZeros(m uint64, e int) (uint64, int) {
	if r := bits.RotateLeft64(m*inv5, -1); r > math.MaxUint64/10 {
		return m, e // most shortest forms end in a nonzero digit
	}
	for {
		r := bits.RotateLeft64(m*inv5p8, -8)
		if r > math.MaxUint64/100000000 {
			break
		}
		m, e = r, e+8
	}
	if r := bits.RotateLeft64(m*inv5p4, -4); r <= math.MaxUint64/10000 {
		m, e = r, e+4
	}
	if r := bits.RotateLeft64(m*inv5p2, -2); r <= math.MaxUint64/100 {
		m, e = r, e+2
	}
	if r := bits.RotateLeft64(m*inv5, -1); r <= math.MaxUint64/10 {
		m, e = r, e+1
	}
	return m, e
}

// appendDecimal appends m×10^e (m ≥ 1, at most 17 digits, no trailing
// zeros) as strconv's 'e' format (sci) or 'f' format with the least
// precision that keeps every digit, the exponent's leading zero
// dropped. json only asks for 'e' on magnitudes below 1e-6 or from
// 1e21 up, so the exponent is never a positive single digit.
func appendDecimal(dst []byte, m uint64, e int, sci bool) []byte {
	nd := decimalLen(m)
	dp := nd + e // digits before the decimal point; ≤ 0 means 0.000ddd
	n0 := len(dst)
	dst = slices.Grow(dst, 32)
	out := dst[n0 : n0+32]
	var n int
	switch {
	case sci:
		// d.ddde±x: write the digits one byte right, then pull the
		// first one in front of the point.
		putDigits(out[1:1+nd], m)
		out[0] = out[1]
		n = 1
		if nd > 1 {
			out[1] = '.'
			n = nd + 1
		}
		x := dp - 1
		out[n] = 'e'
		out[n+1] = '+'
		if x < 0 {
			out[n+1] = '-'
			x = -x
		}
		n += 2
		switch {
		case x >= 100:
			out[n] = byte('0' + x/100)
			x %= 100
			n++
			fallthrough
		case x >= 10:
			out[n], out[n+1] = digitPairs[2*x], digitPairs[2*x+1]
			n += 2
		default:
			out[n] = byte('0' + x)
			n++
		}
	case dp <= 0:
		// 0.000ddd: at most five zeros after the point in 'f' range.
		copy(out, "0.00000")
		n = 2 - dp + nd
		putDigits(out[2-dp:n], m)
	case dp < nd:
		// ddd.ddd: write the digits one byte right, then move the
		// integer part left over the point.
		putDigits(out[1:1+nd], m)
		for i := 0; i < dp; i++ {
			out[i] = out[i+1]
		}
		out[dp] = '.'
		n = nd + 1
	default:
		// ddd000: at most 21 digits in 'f' range.
		putDigits(out[:nd], m)
		copy(out[nd:dp], "0000000000000000000000")
		n = dp
	}
	return dst[:n0+n]
}

// digitPairs holds "00" through "99", so digits go out two at a time.
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

// pow10u64[i] is 10^i.
var pow10u64 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of m ≥ 1.
func decimalLen(m uint64) int {
	t := bits.Len64(m) * 1233 >> 12 // floor(log10(m)) or one more
	if m < pow10u64[t] {
		return t
	}
	return t + 1
}

// putDigits writes m's decimal digits right-aligned into out, whose
// length is m's digit count: eight digits per 64-bit division, stored
// as one word, then two per 32-bit division.
func putDigits(out []byte, m uint64) {
	i := len(out)
	for m >= 1e8 {
		q := m / 1e8
		binary.LittleEndian.PutUint64(out[i-8:], eightDigits(uint32(m-q*1e8)))
		m = q
		i -= 8
	}
	r := uint32(m)
	for r >= 100 {
		d := r % 100 * 2
		r /= 100
		out[i-1], out[i-2] = digitPairs[d+1], digitPairs[d]
		i -= 2
	}
	if r >= 10 {
		out[i-1], out[i-2] = digitPairs[2*r+1], digitPairs[2*r]
		return
	}
	out[i-1] = byte('0' + r)
}

// eightDigits returns the eight ASCII digits of x < 10^8, zero-padded,
// packed first digit lowest for a little-endian store. The divisions
// run in parallel lanes of one word: x splits into two four-digit
// halves in 32-bit lanes, each half into two pairs in 16-bit lanes
// (v×10486>>20 is v/100 for v < 10^4), and each pair into two digits
// in bytes (v×103>>10 is v/10 for v < 100).
func eightDigits(x uint32) uint64 {
	halves := uint64(x/1e4) | uint64(x%1e4)<<32
	hundreds := halves * 10486 >> 20 & (0x7f<<32 | 0x7f)
	pairs := (halves-100*hundreds)<<16 | hundreds
	tens := pairs * 103 >> 10 & 0x000f000f000f000f
	return (pairs-10*tens)<<8 | tens | 0x3030303030303030
}
