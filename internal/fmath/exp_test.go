package fmath

import (
	"math"
	"math/big"
	"testing"
)

func TestExpSpecialCases(t *testing.T) {
	const (
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
	)
	nearZero := math.Ldexp(1, -28)
	for _, c := range []struct {
		x, want float64
	}{
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{math.Nextafter(overflow, math.Inf(1)), math.Inf(1)},
		{1000, math.Inf(1)},
		{math.Nextafter(underflow, math.Inf(-1)), 0},
		{-1000, 0},
		{0, 1},
		{math.Copysign(0, -1), 1},
		{nearZero / 2, 1 + nearZero/2},
		{-nearZero / 2, 1 - nearZero/2},
		{math.Nextafter(nearZero, 0), 1 + math.Nextafter(nearZero, 0)},
	} {
		if got := Exp(c.x); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
	// The thresholds themselves are finite: just below MaxFloat64, and
	// the smallest subnormal.
	if got := Exp(overflow); math.IsInf(got, 0) || got < 1.79e308 {
		t.Errorf("Exp(overflow threshold) = %v, want just below MaxFloat64", got)
	}
	if got := Exp(underflow); got != math.SmallestNonzeroFloat64 {
		t.Errorf("Exp(underflow threshold) = %v, want %v", got, math.SmallestNonzeroFloat64)
	}
}

// ulps is the distance between a and b in units in the last place,
// counted along the float64 encoding of finite non-negative numbers.
func ulps(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// refExp returns e**x rounded to float64 from 200-bit arithmetic:
// x = k·ln2 + r with |r| ≤ ln2/2, and e**r by its Taylor series.
type refExp struct{ ln2 *big.Float }

const refPrec = 200

func newRefExp() refExp {
	// ln 2 = Σ 1/(k·2ᵏ).
	ln2 := new(big.Float).SetPrec(refPrec)
	for k := 1; k <= refPrec+8; k++ {
		term := new(big.Float).SetPrec(refPrec).SetInt64(1)
		term.SetMantExp(term, -k)
		ln2.Add(ln2, term.Quo(term, big.NewFloat(float64(k))))
	}
	return refExp{ln2}
}

func (e refExp) at(x float64) float64 {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(refPrec).SetFloat64(k)
	r.Sub(new(big.Float).SetPrec(refPrec).SetFloat64(x), r.Mul(r, e.ln2))
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for n := int64(1); n <= 50; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetInt64(n))
		sum.Add(sum, term)
	}
	f, _ := sum.SetMantExp(sum, int(k)).Float64()
	return f
}

// Exp is within 1 ulp of e**x over its whole finite range, subnormal
// results included, as the algorithm's error analysis promises.
func TestExpWithinOneULP(t *testing.T) {
	const lo, hi, n = -745.0, 709.78, 10000
	ref := newRefExp()
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/n
		if got, want := Exp(x), ref.at(x); ulps(got, want) > 1 {
			t.Fatalf("Exp(%v) = %v, e**x = %v: %d ulps apart", x, got, want, ulps(got, want))
		}
	}
}

// Over a dense sweep Exp stays within 2 ulps of the standard
// library's: each is within 1 ulp of e**x, so they can straddle it.
// The sweep stops at 709.4 because amd64's assembly math.Exp returns
// +Inf from about 709.46 on, where e**x is still finite (Exp is not).
func TestExpMatchesMath(t *testing.T) {
	const lo, hi, n = -745.0, 709.4, 1_000_000
	differ := 0
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/n
		got, want := Exp(x), math.Exp(x)
		d := ulps(got, want)
		if d > 2 {
			t.Fatalf("Exp(%v) = %v, math.Exp = %v: %d ulps apart", x, got, want, d)
		}
		if d != 0 {
			differ++
		}
	}
	t.Logf("%d of %d sweep points differ from math.Exp", differ, n+1)
	if got := Exp(709.7); math.IsInf(got, 0) {
		t.Errorf("Exp(709.7) = %v, want finite", got)
	}
}

// Pinned output bits: a build that fused a multiply-add into Exp, or
// a port that drifted from the reference algorithm, fails here before
// it moves any docking golden. The inputs span the small arguments of
// the tables' gaussians and the Metropolis test, the log-normal cost
// draws, and both ends of the range.
func TestExpPinnedBits(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want uint64
	}{
		{-0.25, 0x3fe8ebef9eac820b},
		{-1.96, 0x3fc207a6139c6d76},
		{-3.4225, 0x3fa0b4fa7baa9f05},
		{-0.3210054, 0x3fe736a29b462ade},
		{-0.987654321, 0x3fd7d635a57324e6},
		{0.1234567, 0x3ff21a37f3101f06},
		{5.5, 0x406e96244f21bbf6},
		{-600.5, 0x09c94f535b837056},
		{700.25, 0x7f12fd8e4cbfa413},
	} {
		if got := math.Float64bits(Exp(c.x)); got != c.want {
			t.Errorf("Exp(%v) bits = %#016x, want %#016x", c.x, got, c.want)
		}
	}
}

func BenchmarkExp(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += Exp(-float64(i&1023) / 256)
	}
	_ = acc
}
