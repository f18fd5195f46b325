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
// functions of the force field alone, so sharing them across scorers
// and goroutines is safe and keeps per-pair docking setup
// allocation-free after warm-up.
package tables

import "math"

// Table geometry. Each table has two uniform-in-r² segments: a fine
// core over [0, SplitR2) where the Lennard-Jones repulsive wall makes
// the potentials violently curved, and a coarse tail over
// [SplitR2, Cutoff²] where every potential is smooth. The split keeps
// interpolation within 1e-3 kcal/mol over the scored range (see
// DESIGN.md "Kernel architecture") while shrinking each table ~4× so
// the working set of a multi-table inner loop stays cache-resident —
// with a single uniform segment at core resolution the lookups are
// cache-miss bound and most of the table-path speedup evaporates.
//
// RMin²·invCore = 256 exactly, so the r ≥ RMin clamp baked into the
// AD4/electrostatic/desolvation tables lands on a table node and never
// puts a derivative kink inside an interpolation bin; SplitR2 itself
// is the shared boundary node of the two segments.
const (
	// Cutoff is the non-bonded interaction cutoff in Å shared by
	// AutoGrid map generation and both scoring functions.
	//unit: Å
	Cutoff = 8.0
	// SplitR2 is the r² boundary (Ų) between the fine core segment
	// and the coarse tail segment.
	//unit: Å2
	SplitR2 = 16.0
	// BinsCore is the number of r² bins covering [0, SplitR2):
	// Δr² = 2⁻¹⁰ Ų, fine enough for the r≈RMin repulsive core.
	BinsCore = 1 << 14
	// BinsTail is the number of r² bins covering [SplitR2, Cutoff²]:
	// Δr² ≈ 1.2e-2 Ų, ample for the smooth attractive tail.
	BinsTail = 1 << 12
	// RMin is AutoGrid's minimum interaction distance: pair terms are
	// evaluated at max(r, RMin), capping the singular repulsive core.
	//unit: Å
	RMin = 0.5
	// RMin2 is RMin² for callers that clamp in r² space.
	//unit: Å2
	RMin2 = RMin * RMin

	// NNodes is the total node count of every Radial: BinsCore core
	// nodes plus BinsTail+1 tail nodes (the boundary node is shared).
	NNodes = BinsCore + BinsTail + 1

	invCore = BinsCore / SplitR2                   // core bins per Ų
	invTail = BinsTail / (Cutoff*Cutoff - SplitR2) // tail bins per Ų
)

// Radial is one radial interaction tabulated on the two-segment
// r²-indexed grid over [0, Cutoff²], evaluated by linear interpolation
// in r². Queries at or beyond the cutoff return the last node (callers
// cutoff-check first; every tabulated potential is ~0 there).
type Radial struct {
	// vals holds BinsCore core nodes (vals[i] = f(√(i/invCore)) for
	// i < BinsCore), then the BinsTail+1 tail nodes starting with the
	// shared boundary node at r² = SplitR2. A fixed-size array, so a
	// *Radial is the node pointer itself: At2 inlined into a scoring
	// loop loads no slice header and checks the index against a
	// constant.
	vals [NNodes]float64
}

// NewRadial tabulates f — a function of the distance r in Å — on the
// package's two-segment r² grid.
func NewRadial(f func(r float64) float64) *Radial {
	t := new(Radial)
	for i := 0; i < BinsCore; i++ {
		t.vals[i] = f(math.Sqrt(float64(i) / invCore))
	}
	for j := 0; j <= BinsTail; j++ {
		t.vals[BinsCore+j] = f(math.Sqrt(SplitR2 + float64(j)/invTail))
	}
	return t
}

// At2 returns the interpolated value at squared distance r2 ≥ 0: the
// one table evaluation every kernel — per-pose and batched scorers,
// map generation — inlines.
//
// The table coordinate is the smaller of the two segment coordinates,
// which selects the right segment without a data-dependent branch (a
// batch of mixed core/tail distances costs no mispredictions). The core
// line r2·invCore is exact and steeper than the tail line, and the two
// cross at the shared boundary node, so it lies below the tail line
// exactly when r2 < SplitR2; rounding is monotone, so the computed
// values keep that order and can only tie on identical bits. The
// result is therefore bit for bit the branch `if r2 >= SplitR2` would
// pick.
//
// unit: r2=Å2
func (t *Radial) At2(r2 float64) float64 {
	x := min(r2*invCore, BinsCore+(r2-SplitR2)*invTail)
	i := int(x)
	if i >= NNodes-1 {
		return t.vals[NNodes-1]
	}
	v := t.vals[i]
	return v + (x-float64(i))*(t.vals[i+1]-v)
}
