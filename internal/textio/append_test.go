package textio

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// fixedCases draws n float64s that cover AppendFixed's branches: random
// bit patterns (every exponent, NaNs and infinities among them), values
// of coordinate magnitude, exact rounding ties at prec, values one ulp
// either side of a decimal rounding boundary (carries included),
// subnormals, ±0 and the neighbours of the fast path's limit.
func fixedCases(r *rand.Rand, n int) []float64 {
	out := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		0.5, 1.5, 2.5, -0.5, 0.05, 0.005, 0.0005, 9.9995, 99.5, 999999.5,
		1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63),
	}
	for _, l := range fixedLimit {
		out = append(out, l, -l, math.Nextafter(l, 0), math.Nextafter(l, math.Inf(1)))
	}
	for len(out) < n {
		var v float64
		switch r.Intn(6) {
		case 0:
			v = math.Float64frombits(r.Uint64())
		case 1:
			v = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(9)-3))
		case 2: // exact tie at some prec p: odd·2^-(p+1)
			p := r.Intn(maxFixedPrec + 1)
			v = float64(2*r.Int63n(1<<20)+1) * math.Ldexp(1, -(p+1))
		case 3: // next to a decimal boundary (k+½)/10ᵖ, which carries
			p := r.Intn(maxFixedPrec + 1)
			k := float64(r.Int63n(1e7))
			if r.Intn(2) == 0 {
				k = math.Pow(10, float64(r.Intn(8))) - 1 // 9…9: carries into a new digit
			}
			v = (k + 0.5) / float64(pow10[p])
			for i := r.Intn(3); i > 0; i-- {
				v = math.Nextafter(v, math.Inf(2*r.Intn(2)-1))
			}
		case 4: // subnormal
			v = math.Float64frombits(r.Uint64() & (1<<52 - 1))
		case 5: // any finite magnitude near the fast path's range
			v = math.Ldexp(r.Float64(), r.Intn(140)-75)
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		out = append(out, v)
	}
	return out
}

// TestAppendFixedMatchesStrconv renders 2²⁰ values (2¹⁶ under -race or
// -short) at every precision 0…6, plus the strconv fallback at 7, and
// requires
// AppendFixed's digits to equal strconv's 'f' rendering byte for byte.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	n := 1 << 20
	if testing.Short() || raceDetector {
		n = 1 << 16
	}
	var got, want []byte
	for i, v := range fixedCases(r, n) {
		prec := i % (maxFixedPrec + 2)
		got = AppendFixed(got[:0], v, 0, prec)
		want = strconv.AppendFloat(want[:0], v, 'f', prec, 64)
		if string(got) != string(want) {
			t.Fatalf("AppendFixed(%v [%#016x], prec %d) = %q, strconv %q",
				v, math.Float64bits(v), prec, got, want)
		}
	}
}

// TestAppendHelpersMatchFmt checks the padded forms against the fmt
// verbs they replace, multi-byte strings and over-wide values included.
func TestAppendHelpersMatchFmt(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i, v := range fixedCases(r, 20000) {
		w, p := i%14, i%(maxFixedPrec+2)
		if got, want := string(AppendFixed([]byte("x"), v, w, p)), "x"+fmt.Sprintf("%*.*f", w, p, v); got != want {
			t.Fatalf("AppendFixed(%v, %d, %d) = %q, fmt %q", v, w, p, got, want)
		}
	}
	for _, v := range []int{0, 1, -1, 7, -42, 99999, 123456, -123456, math.MaxInt64, math.MinInt64} {
		for w := 0; w < 8; w++ {
			if got, want := string(AppendInt(nil, v, w)), fmt.Sprintf("%*d", w, v); got != want {
				t.Errorf("AppendInt(%d, %d) = %q, fmt %q", v, w, got, want)
			}
		}
	}
	for _, s := range []string{"", "A", "CA", "HG12", "LONGNAME", "Cα", "ÅÅÅÅÅ", "é"} {
		for w := 0; w < 8; w++ {
			if got, want := string(AppendLeft(nil, s, w)), fmt.Sprintf("%-*s", w, s); got != want {
				t.Errorf("AppendLeft(%q, %d) = %q, fmt %q", s, w, got, want)
			}
			if got, want := string(AppendRight(nil, s, w)), fmt.Sprintf("%*s", w, s); got != want {
				t.Errorf("AppendRight(%q, %d) = %q, fmt %q", s, w, got, want)
			}
		}
	}
}

// TestAppendAllocatesNothing pins that rendering into a slice with room
// allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	dst := make([]byte, 0, 256)
	n := testing.AllocsPerRun(100, func() {
		b := AppendFixed(dst[:0], -12.3456, 8, 3)
		b = AppendInt(b, 4242, 5)
		b = AppendLeft(b, "CA", 4)
		AppendRight(b, "A", 1)
	})
	if n != 0 {
		t.Errorf("append helpers allocate %v times, want 0", n)
	}
}

// FuzzAppendFixed compares AppendFixed with fmt's %{width}.{prec}f on
// any bit pattern, width and precision.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 0.0005, 2.5, -9.9995, 1e300, 5e-324, math.NaN()} {
		f.Add(math.Float64bits(v), uint8(8), uint8(3))
	}
	f.Fuzz(func(t *testing.T, b uint64, width, prec uint8) {
		v := math.Float64frombits(b)
		w, p := int(width%24), int(prec%(maxFixedPrec+3))
		got := string(AppendFixed(nil, v, w, p))
		if want := fmt.Sprintf("%*.*f", w, p, v); got != want {
			t.Fatalf("AppendFixed(%v [%#016x], %d, %d) = %q, fmt %q", v, b, w, p, got, want)
		}
	})
}

// BenchmarkAppendFixed renders what the atom records hold: coordinates
// within ±100 Å at %8.3f.
func BenchmarkAppendFixed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = r.Float64()*200 - 100
	}
	dst := make([]byte, 0, 64)
	b.Run("AppendFixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AppendFixed(dst[:0], vs[i%len(vs)], 8, 3)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strconv.AppendFloat(dst[:0], vs[i%len(vs)], 'f', 3, 64)
		}
	})
}
