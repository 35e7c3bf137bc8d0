package wire

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestPow10Table re-derives every entry of the generated power-of-ten
// table with math/big: g = floor(10^K × 2^(127 - floor(log2 10^K))) + 1,
// a 128-bit integer with its top bit set.
func TestPow10Table(t *testing.T) {
	for k := pow10Min; k <= pow10Max; k++ {
		want := pow10Rat(k)
		// Scale 10^K into [2^127, 2^128) and take the floor.
		e := floorLog2Rat(want)
		want.Mul(want, new(big.Rat).SetFrac(pow2Int(max(127-e, 0)), pow2Int(max(e-127, 0))))
		g := new(big.Int).Quo(want.Num(), want.Denom())
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 128 {
			t.Fatalf("1e%d: entry has %d bits, want 128", k, g.BitLen())
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10Tab[k-pow10Min][0]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10Tab[k-pow10Min][1]))
		if got.Cmp(g) != 0 {
			t.Fatalf("1e%d: table holds %#x, math/big gives %#x", k, got, g)
		}
	}
}

// TestShortestDecimalConstants checks, over every binary exponent of a
// finite float64, the fixed-point logarithms shortestDecimal uses in
// place of math/big: k = floor(log10(2^q)), its 3/4 variant at the
// powers of two, h = q + floor(log2 10^-k) + 1 in [1, 4], and that
// pow10Tab covers every 10^-k.
func TestShortestDecimalConstants(t *testing.T) {
	for q := -1074; q <= 971; q++ {
		for _, closer := range []bool{false, true} {
			if closer && q == -1074 {
				continue // subnormals are never at a power-of-two step
			}
			v := new(big.Rat).SetFrac(pow2Int(max(q, 0)), pow2Int(max(-q, 0)))
			k := (q * 1262611) >> 22
			if closer {
				v.Mul(v, big.NewRat(3, 4))
				k = (q*1262611 - 524031) >> 22
			}
			if want := floorLog10Rat(v); k != want {
				t.Fatalf("q=%d closer=%v: k=%d, floor(log10) is %d", q, closer, k, want)
			}
			f := ((-k) * 1741647) >> 19
			if want := floorLog2Rat(pow10Rat(-k)); f != want {
				t.Fatalf("q=%d: floor(log2 1e%d) approximated as %d, is %d", q, -k, f, want)
			}
			if h := q + f + 1; h < 1 || h > 4 {
				t.Fatalf("q=%d: h=%d outside [1, 4]", q, h)
			}
			if -k < pow10Min || -k > pow10Max {
				t.Fatalf("q=%d: 1e%d outside the table", q, -k)
			}
		}
	}
}

// TestRoundToOdd compares roundToOdd with the exact round-to-odd of
// cp × 2^q × 10^-k, computed with math/big, for seeded random cp in the
// range shortestDecimal passes (4c-2 to 4c+2 for a 53-bit c) at every
// binary exponent.
func TestRoundToOdd(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ten := big.NewInt(10)
	for q := -1074; q <= 971; q++ {
		k := (q * 1262611) >> 22
		h := q + ((-k)*1741647)>>19 + 1
		// cp × 2^q × 10^-k = cp × num / den.
		num := new(big.Int).Mul(pow2Int(max(q, 0)), new(big.Int).Exp(ten, big.NewInt(int64(max(-k, 0))), nil))
		den := new(big.Int).Mul(pow2Int(max(-q, 0)), new(big.Int).Exp(ten, big.NewInt(int64(max(k, 0))), nil))
		for i := 0; i < 64; i++ {
			cp := 1<<54 - 2 + uint64(r.Int63n(1<<54+5))
			quo, rem := new(big.Int).QuoRem(new(big.Int).Mul(new(big.Int).SetUint64(cp), num), den, new(big.Int))
			want := quo.Uint64()
			if rem.Sign() != 0 {
				want |= 1
			}
			if got := roundToOdd(&pow10Tab[-k-pow10Min], cp<<h); got != want {
				t.Fatalf("q=%d cp=%d: roundToOdd %d, exact %d", q, cp, got, want)
			}
		}
	}
}

func pow2Int(n int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(n)) }

// pow10Rat returns 10^k exactly.
func pow10Rat(k int) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(iabs(k))), nil)
	if k < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

func iabs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// floorLog2Rat returns floor(log2 r) for r > 0.
func floorLog2Rat(r *big.Rat) int {
	e := r.Num().BitLen() - r.Denom().BitLen() // within one of the answer
	for ; ratCmpPow(r, 2, e) < 0; e-- {
	}
	for ; ratCmpPow(r, 2, e+1) >= 0; e++ {
	}
	return e
}

// floorLog10Rat returns floor(log10 r) for r > 0.
func floorLog10Rat(r *big.Rat) int {
	f, _ := r.Float64()
	e := int(math.Floor(math.Log10(f)))
	for ; ratCmpPow(r, 10, e) < 0; e-- {
	}
	for ; ratCmpPow(r, 10, e+1) >= 0; e++ {
	}
	return e
}

// ratCmpPow compares r with base^e.
func ratCmpPow(r *big.Rat, base int64, e int) int {
	p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(iabs(e))), nil)
	pr := new(big.Rat).SetInt(p)
	if e < 0 {
		pr.Inv(pr)
	}
	return r.Cmp(pr)
}

// strconvAppendFloat is encoding/json's floatEncoder: strconv.AppendFloat
// in the format json picks, then its exponent cleanup. It is
// BenchmarkAppendFloat's baseline.
func strconvAppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// floatClasses returns the three kinds of float a /v1/predict/batch
// answer carries, 1024 of each, drawn the way perfbench draws its
// worksheets: derived quantities with 16-17 significant digits,
// integer-valued inputs (clocks, ops per element, throughputs) and
// inputs with one to four decimals (alphas, throughput_proc,
// tsoft_seconds).
func floatClasses() (names []string, classes [][]float64) {
	r := rand.New(rand.NewSource(7))
	var digits17, integer, short []float64
	for i := 0; i < 1024; i++ {
		digits17 = append(digits17, 2.560096153846154*math.Exp2(8*r.Float64()-4)*
			[...]float64{1e-6, 1e-3, 1, 1e3}[i%4])
		integer = append(integer, [...]float64{
			float64(50 + r.Intn(201)), math.Round(768 * math.Exp2(4*r.Float64()-2)),
			math.Round(1000 * math.Exp2(4*r.Float64()-2)), [...]float64{2, 4, 8}[r.Intn(3)],
		}[i%4])
		short = append(short, [...]float64{
			math.Round((0.05+0.95*r.Float64())*1000) / 1000,
			math.Round(20*math.Exp2(4*r.Float64()-2)*10) / 10,
			math.Round(0.578*math.Exp2(4*r.Float64()-2)*1e4) / 1e4,
		}[i%3])
	}
	return []string{"digits17", "integer", "short"}, [][]float64{digits17, integer, short}
}

// BenchmarkAppendFloat times appendFloat against strconvAppendFloat on
// each value class, in the same process so the ratio holds on any
// host. Not gated.
func BenchmarkAppendFloat(b *testing.B) {
	names, classes := floatClasses()
	for c, vs := range classes {
		for _, enc := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{{"wire", appendFloat}, {"strconv", strconvAppendFloat}} {
			b.Run(names[c]+"/"+enc.name, func(b *testing.B) {
				buf := make([]byte, 0, 64)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = enc.fn(buf[:0], vs[i%len(vs)])
				}
			})
		}
	}
}
