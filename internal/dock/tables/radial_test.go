package tables

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
)

// octaveEdges are RMin² and the octave boundaries above it, 2ᵏ for
// k = −2…6; the last is Cutoff².
func octaveEdges() []float64 {
	var edges []float64
	for k := -2; k <= 6; k++ {
		edges = append(edges, math.Ldexp(1, k))
	}
	return edges
}

// family is one table of a family with its analytic form, clamp
// included.
type family struct {
	name    string
	tbl     *Radial
	f       func(r float64) float64
	clamped bool // constant below RMin
}

func familyTables() []family {
	c, oa, n := chem.TypeC.Params(), chem.TypeOA.Params(), chem.TypeN.Params()
	return []family{
		{"AD4Smoothed(C,OA)", AD4Smoothed(chem.TypeC, chem.TypeOA), func(r float64) float64 {
			return PairEnergySmoothed(c, oa, max(r, RMin), SmoothRadius)
		}, true},
		{"AD4Pair(N,OA)", AD4Pair(chem.TypeN, chem.TypeOA), func(r float64) float64 {
			return PairEnergy(n, oa, max(r, RMin))
		}, true},
		{"Vina(C,C)", Vina(chem.TypeC, chem.TypeC), func(r float64) float64 { return VinaPair(c, c, r) }, false},
		{"Vina(N,OA)", Vina(chem.TypeN, chem.TypeOA), func(r float64) float64 { return VinaPair(n, oa, r) }, false},
		{"Electrostatic", Electrostatic(), func(r float64) float64 { return ElecScale(max(r, RMin)) }, true},
		{"Desolvation", Desolvation(), func(r float64) float64 { return DesolvWeight(max(r, RMin)) }, true},
	}
}

// A Radial holds about as many nodes as AutoGrid's and Vina's own
// tables: 64 core nodes and 256 per octave, 2,113 in all, plus the
// repeated last node.
func TestRadialSize(t *testing.T) {
	if n := len(new(Radial).vals); n > 2200 {
		t.Errorf("a Radial holds %d nodes, want ≤ 2200", n)
	}
	if nNodes != 2113 {
		t.Errorf("nNodes = %d, want 2113", nNodes)
	}
}

// Node r² values increase, the core is uniform at Δr² = 2⁻⁸, and from
// RMin² on no bin is wider than 1/256 of its left end.
func TestNodeSpacing(t *testing.T) {
	for i := 1; i < nNodes; i++ {
		lo, hi := nodeR2(i-1), nodeR2(i)
		if hi <= lo {
			t.Fatalf("node %d at r² %v does not follow node %d at %v", i, hi, i-1, lo)
		}
		if i <= coreBins {
			if hi-lo != 1.0/256 {
				t.Fatalf("core bin %d is %v Ų wide, want 2⁻⁸", i-1, hi-lo)
			}
			continue
		}
		if (hi-lo)/lo > 1.0/256 {
			t.Fatalf("bin %d [%v, %v) is %.3g of its left end wide, want ≤ 1/256", i-1, lo, hi, (hi-lo)/lo)
		}
	}
	if nodeR2(coreBins) != RMin2 || nodeR2(nNodes-1) != Cutoff*Cutoff {
		t.Errorf("octave nodes span [%v, %v], want [RMin², Cutoff²]", nodeR2(coreBins), nodeR2(nNodes-1))
	}
}

// RMin² and every octave boundary are nodes: At2 there returns the
// tabulated function's value at the node bit for bit, for a test
// function and for every table family.
func TestOctaveEdgesAreNodes(t *testing.T) {
	f := func(r float64) float64 { return math.Sin(3*r) / (1 + r*r*r) }
	probe := NewRadial(f)
	for _, r2 := range octaveEdges() {
		if got, want := probe.At2(r2), f(math.Sqrt(r2)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("At2(%v) = %v, want f at the node %v", r2, got, want)
		}
		for _, fam := range familyTables() {
			if got, want := fam.tbl.At2(r2), fam.f(math.Sqrt(r2)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: At2(%v) = %v, want the node value %v", fam.name, r2, got, want)
			}
		}
	}
}

// At2 is continuous across RMin² and every octave boundary: the value
// one ulp below the edge differs from the node value only by the
// slope times that ulp.
func TestContinuousAcrossOctaveEdges(t *testing.T) {
	for _, r2 := range octaveEdges() {
		below := math.Nextafter(r2, 0)
		for _, fam := range familyTables() {
			at, left := fam.tbl.At2(r2), fam.tbl.At2(below)
			if d := math.Abs(at - left); d > 1e-9*max(1, math.Abs(at)) {
				t.Errorf("%s: At2 jumps by %.3g across r² = %v (%v → %v)", fam.name, d, r2, left, at)
			}
		}
	}
}

// Beyond the cutoff At2 returns the last node bit for bit, whatever
// the low mantissa bits of r2: the index is clamped onto the last node
// and interpolates towards its repeated copy.
func TestBeyondCutoffIsLastNode(t *testing.T) {
	for _, fam := range familyTables() {
		want := math.Float64bits(fam.tbl.At2(Cutoff * Cutoff))
		for _, r2 := range []float64{math.Nextafter(Cutoff*Cutoff, 100), 64.3, 99.99, 1e6, math.Inf(1)} {
			if got := math.Float64bits(fam.tbl.At2(r2)); got != want {
				t.Errorf("%s: At2(%v) = %v, want the last node %v", fam.name, r2,
					math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
}

// Below RMin² the clamped tables are constant, bit for bit, and Vina's
// core nodes hold its unclamped values.
func TestCoreSegment(t *testing.T) {
	for _, fam := range familyTables() {
		for i := range coreBins {
			r2 := float64(i) / 256
			if fam.clamped {
				mid := r2 + 1.0/512
				if got, want := fam.tbl.At2(mid), fam.tbl.At2(RMin2); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: At2(%v) = %v, want the clamped %v", fam.name, mid, got, want)
				}
			} else if got, want := fam.tbl.At2(r2), fam.f(math.Sqrt(r2)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: At2(%v) = %v, want unclamped %v", fam.name, r2, got, want)
			}
		}
	}
}

// A function linear in r² is reproduced to rounding everywhere: the
// fraction At2 reads from the low mantissa bits is the position in the
// bin, linear in r².
func TestLinearInR2IsExact(t *testing.T) {
	tbl := NewRadial(func(r float64) float64 { return 3 - 0.5*r*r })
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		r2 := rng.Float64() * Cutoff * Cutoff
		if i%2 == 0 {
			r2 = rng.Float64() * RMin2 * 4
		}
		want := 3 - 0.5*r2
		if got := tbl.At2(r2); math.Abs(got-want) > 1e-13*max(1, math.Abs(want)) {
			t.Fatalf("At2(%v) = %v, want %v", r2, got, want)
		}
	}
}

// At2D's value is At2's, bit for bit, over a dense r² sweep of every
// family from 0 past the cutoff, and its slope is the bin's: a
// function linear in r² has slope −0.5 everywhere to rounding, and
// beyond the cutoff the slope is 0.
func TestAt2DMatchesAt2(t *testing.T) {
	for _, fam := range familyTables() {
		for i := 0; i <= 200000; i++ {
			r2 := float64(i) * (1.05 * Cutoff * Cutoff / 200000)
			v, _ := fam.tbl.At2D(r2)
			if want := fam.tbl.At2(r2); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: At2D(%v) value %v, At2 %v", fam.name, r2, v, want)
			}
		}
		for _, r2 := range []float64{Cutoff * Cutoff, math.Nextafter(Cutoff*Cutoff, 100), 64.3, 1e6} {
			if _, d := fam.tbl.At2D(r2); d != 0 {
				t.Errorf("%s: slope %v at r² = %v, want 0 at and beyond the cutoff", fam.name, d, r2)
			}
		}
	}
	tbl := NewRadial(func(r float64) float64 { return 3 - 0.5*r*r })
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100000; i++ {
		r2 := rng.Float64() * Cutoff * Cutoff
		if i%2 == 0 {
			r2 = rng.Float64() * RMin2 * 4
		}
		if _, d := tbl.At2D(r2); math.Abs(d+0.5) > 1e-9 {
			t.Fatalf("At2D(%v) slope %v, want -0.5", r2, d)
		}
	}
}

// At2DOctave is At2D bit for bit, value and slope, wherever the
// gradient loops call it (r² ≥ RMin²): at every octave node and one ulp
// either side, at RMin² and the cutoff, beyond the cutoff and over a
// dense random sweep.
func TestAt2DOctaveMatchesAt2D(t *testing.T) {
	probes := []float64{RMin2, Cutoff * Cutoff, math.Nextafter(Cutoff*Cutoff, 100), 64.3, 100, 1e6, math.MaxFloat64, math.Inf(1)}
	for i := coreBins; i < nNodes; i++ {
		r2 := nodeR2(i)
		probes = append(probes, r2, math.Nextafter(r2, math.Inf(1)))
		if below := math.Nextafter(r2, 0); below >= RMin2 {
			probes = append(probes, below)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for range 200000 {
		probes = append(probes, RMin2+rng.Float64()*(1.05*Cutoff*Cutoff-RMin2))
	}
	for _, fam := range familyTables() {
		for _, r2 := range probes {
			v, d := fam.tbl.At2DOctave(r2)
			wv, wd := fam.tbl.At2D(r2)
			if math.Float64bits(v) != math.Float64bits(wv) || math.Float64bits(d) != math.Float64bits(wd) {
				t.Fatalf("%s: At2DOctave(%v) = (%v, %v), At2D (%v, %v)", fam.name, r2, v, d, wv, wd)
			}
		}
	}
}
