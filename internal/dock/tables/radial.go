// Package tables precomputes every radial interaction used by the
// docking kernels on r²-indexed lookup tables, the same trick the
// real AutoGrid and Vina use: the analytic pair potentials are
// exp/sqrt-heavy, far too slow to evaluate once per lattice point ×
// receptor atom (activity 5) or per Monte-Carlo step × atom pair
// (activity 8). Tabulating them keyed by squared distance removes both
// the transcendental calls and the unconditional sqrt from the inner
// loops, because cell lists and neighbour queries already produce r².
//
// The package owns the analytic forms (moved here from the grid and
// vina packages so both can share one source of truth without an
// import cycle) and a process-global cache of built tables, keyed by
// (kind, type pair) and interned by content, so keys whose potentials
// tabulate to the same bits share one table. Tables are deterministic
// functions of the force field alone — the analytic forms take their
// exponentials from fmath and round every product on its own, so the
// nodes do not depend on the CPU's fused multiply-add — and sharing
// them across scorers and goroutines is safe and keeps per-pair
// docking setup allocation-free after warm-up.
package tables

import "math"

// Table geometry. Every table covers [0, Cutoff²] in two parts:
//
//   - a short uniform core over [0, RMin²) with Δr² = 2⁻⁸ Ų. The
//     clamped tables (AD4, electrostatic, desolvation) are constant
//     there; Vina keeps its unclamped values, which only deep clashes
//     read;
//   - octaves [2ᵏ, 2ᵏ⁺¹) for k = −2…5, each cut into octaveNodes
//     equal bins, so the node spacing is at most r²/octaveNodes
//     everywhere from RMin² to the cutoff. That relative spacing is
//     what the Lennard-Jones wall near RMin needs, and it is ample on
//     the smooth tail (see DESIGN.md "Resolution and error bound").
//
// Cutoff² = 2⁶ and RMin² = 2⁻² are exact powers of two, so both ends
// of the octave part are nodes, and the r ≥ RMin clamp never puts a
// derivative kink inside an interpolation bin. An octave node's index
// is the top bits of its r²'s float64 encoding (exponent and top
// octaveBits mantissa bits) less a constant, so At2 finds the bin with
// one shift instead of a search or a logarithm.
const (
	// Cutoff is the non-bonded interaction cutoff in Å shared by
	// AutoGrid map generation and both scoring functions.
	//unit: Å
	Cutoff = 8.0
	// RMin is AutoGrid's minimum interaction distance: pair terms are
	// evaluated at max(r, RMin), capping the singular repulsive core.
	//unit: Å
	RMin = 0.5
	// RMin2 is RMin² for callers that clamp in r² space.
	//unit: Å2
	RMin2 = RMin * RMin

	coreBins    = 64               // uniform bins over [0, RMin²)
	coreInv     = coreBins / RMin2 // core bins per Ų
	octaveBits  = 8
	octaveNodes = 1 << octaveBits // bins per octave of r²
	octaves     = 8               // [2⁻², 2⁶)

	// nNodes is the node count of every Radial: the core nodes, then
	// the octave nodes from RMin² up to and including Cutoff².
	nNodes = coreBins + octaves*octaveNodes + 1

	// fracBits is the number of low mantissa bits below the node
	// index; they hold the interpolation fraction.
	fracBits = 52 - octaveBits
	// octaveBase is RMin²'s index bits (biased exponent 1023−2, zero
	// mantissa) less its node index, so an octave node's index is
	// Float64bits(r²)>>fracBits − octaveBase.
	octaveBase = (1023-2)<<octaveBits - coreBins
)

// Radial is one radial interaction tabulated on the octave-indexed r²
// grid over [0, Cutoff²], evaluated by linear interpolation in r².
// Queries at or beyond the cutoff return the last node (callers
// cutoff-check first; every tabulated potential is ~0 there).
type Radial struct {
	// vals holds the coreBins core nodes (vals[i] = f(√(i/coreInv))),
	// then the octave nodes from r² = RMin² to r² = Cutoff², then the
	// last node once more: At2 clamps a beyond-cutoff index onto the
	// last node and interpolates towards its equal copy, so it needs no
	// separate return path, which would not fit its inlining budget. A
	// fixed-size array, so a *Radial is the node pointer itself: At2
	// inlined into a scoring loop loads no slice header.
	vals [nNodes + 1]float64
}

// nodeR2 is the squared distance (Ų) of node i < nNodes.
func nodeR2(i int) float64 {
	if i < coreBins {
		return float64(i) / coreInv
	}
	return math.Float64frombits(uint64(i+octaveBase) << fracBits)
}

// NewRadial tabulates f — a function of the distance r in Å — on the
// package's octave-indexed r² grid.
func NewRadial(f func(r float64) float64) *Radial {
	t := new(Radial)
	for i := range nNodes {
		t.vals[i] = f(math.Sqrt(nodeR2(i)))
	}
	t.vals[nNodes] = t.vals[nNodes-1]
	return t
}

// At2 returns the interpolated value at squared distance r2 ≥ 0: the
// one table evaluation both scorers and map generation inline.
//
// From RMin² on, the node index is the bits of r2 above fracBits (an
// index past the last node is clamped onto it), and the bits below,
// scaled by 2^-fracBits, are the fraction of the bin: within one
// octave r² is linear in its mantissa, so this is linear interpolation
// in r², and at a node the fraction is exactly zero. Sub-RMin
// distances take the uniform core, a branch only deep clashes reach,
// so it is all but never mispredicted.
//
// The inlining cost is at the compiler's budget of 80: check
// `go build -gcflags=-m` after any edit, since a call per pair term
// would cost more than the table saves.
//
// unit: r2=Å2
func (t *Radial) At2(r2 float64) float64 {
	var i int
	var frac float64
	if r2 < RMin2 {
		x := float64(r2 * coreInv)
		i = int(x)
		frac = x - float64(i)
	} else {
		b := math.Float64bits(r2)
		i = int(min(b>>fracBits, octaveBase+nNodes-1)) - octaveBase
		frac = float64(b&(1<<fracBits-1)) * (1.0 / (1 << fracBits))
	}
	v := t.vals[i]
	return v + float64(frac*(t.vals[i+1]-v))
}

// At2D returns At2(r2), bit for bit, and dv/dr², the slope of the bin
// r2 falls in: (vals[i+1] − vals[i]) times the inverse bin width. In the
// octave part the inverse width is octaveNodes/2ᵉ for r2 in [2ᵉ, 2ᵉ⁺¹),
// an exact power of two assembled from r2's exponent bits, so no
// division is paid per pair term. At and beyond the cutoff the slope is
// 0: the last node is repeated.
//
// unit: r2=Å2
func (t *Radial) At2D(r2 float64) (v, dvdr2 float64) {
	var i int
	var frac, inv float64
	if r2 < RMin2 {
		x := float64(r2 * coreInv)
		i = int(x)
		frac = x - float64(i)
		inv = coreInv
	} else {
		b := math.Float64bits(r2)
		i = int(min(b>>fracBits, octaveBase+nNodes-1)) - octaveBase
		frac = float64(b&(1<<fracBits-1)) * (1.0 / (1 << fracBits))
		inv = math.Float64frombits((2046-b>>52)<<52) * octaveNodes
	}
	v0 := t.vals[i]
	d := t.vals[i+1] - v0
	return v0 + float64(frac*d), d * inv
}

// At2DOctave is At2D's octave path alone: At2D(r2), bit for bit, for
// r2 ≥ RMin². Without the core branch its inlining cost is 75, under
// the compiler's budget of 80 (At2D's is 111), so the gradient loops
// read a receptor hit or an intramolecular pair with no call and leave
// the rare r2 < RMin² to At2D. At2D keeps its own copy of the octave
// path, the reference TestAt2DOctaveMatchesAt2D holds this one to;
// scripts/check.sh fails when this method stops being inlined at
// vina's call sites.
//
// unit: r2=Å2
func (t *Radial) At2DOctave(r2 float64) (v, dvdr2 float64) {
	b := math.Float64bits(r2)
	i := int(min(b>>fracBits, octaveBase+nNodes-1)) - octaveBase
	frac := float64(b&(1<<fracBits-1)) * (1.0 / (1 << fracBits))
	v0 := t.vals[i]
	d := t.vals[i+1] - v0
	return v0 + float64(frac*d), d * (math.Float64frombits((2046-b>>52)<<52) * octaveNodes)
}
