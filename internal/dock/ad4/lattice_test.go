package ad4

import (
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/tables"
	"repro/internal/grid"
)

// lattice64 holds a receptor's AutoGrid lattices in float64: each
// node's sums, clamped at AutoGrid's ±100,000 but not rounded to the
// float32 a grid.Maps stores.
type lattice64 struct {
	spec         grid.Spec
	affinity     map[chem.AtomType][]float64
	elec, desolv []float64
}

// sumLattices recomputes every node of spec the way map generation
// walks it: the node's packed-neighbour candidates filtered at the
// cutoff in list order, each hit's receptor-type row read once by
// tables.Row.AddAt2 for every probe's term and the elec and desolv
// weights, and those summed in float64.
func sumLattices(rec *chem.Molecule, spec grid.Spec, probes []chem.AtomType) *lattice64 {
	const energyClamp = 1e5 // AutoGrid's, as grid clamps
	clamp := func(v float64) float64 { return math.Max(-energyClamp, math.Min(energyClamp, v)) }
	cells := dock.NewPackedNeighbors(rec, tables.Cutoff, func(atom int32) int32 { return atom })
	atoms := cells.Atoms()
	rows := make([]*tables.Row, len(rec.Atoms))
	charge := make([]float64, len(rec.Atoms))
	dcoef := make([]float64, len(rec.Atoms))
	for i := range rec.Atoms {
		a := &rec.Atoms[i]
		at := a.Type
		if at == "" {
			at = chem.TypeForElement(a.Element)
		}
		rows[i] = tables.AD4Row(at, probes)
		charge[i], dcoef[i] = a.Charge, tables.DesolvCoeff(at.Params(), a.Charge)
	}
	n := spec.NumPoints()
	l := &lattice64{
		spec:     spec,
		affinity: make(map[chem.AtomType][]float64, len(probes)),
		elec:     make([]float64, n),
		desolv:   make([]float64, n),
	}
	for _, p := range probes {
		l.affinity[p] = make([]float64, n)
	}
	acc := make([]float64, len(probes))
	hits := make([]dock.Hit, 64)
	o := spec.Origin()
	idx := 0
	for k := 0; k < spec.NPts[2]; k++ {
		z := o.Z + float64(k)*spec.Spacing
		for j := 0; j < spec.NPts[1]; j++ {
			y := o.Y + float64(j)*spec.Spacing
			for i := 0; i < spec.NPts[0]; i++ {
				x := o.X + float64(i)*spec.Spacing
				cand := cells.Candidates(chem.V(x, y, z))
				for len(hits) < len(cand) {
					hits = make([]dock.Hit, 2*len(hits)) // FilterIndexed wants a power of two
				}
				m := dock.FilterIndexed(atoms, cand, x, y, z, tables.Cutoff*tables.Cutoff, hits, 0)
				clear(acc)
				var elec, desolv float64
				for _, h := range hits[:m] {
					e, d := rows[h.Cls].AddAt2(acc, h.R2)
					elec += float64(charge[h.Cls] * e)
					desolv += float64(dcoef[h.Cls] * d)
				}
				l.elec[idx], l.desolv[idx] = clamp(elec), clamp(desolv)
				for pi, p := range probes {
					l.affinity[p][idx] = clamp(acc[pi])
				}
				idx++
			}
		}
	}
	return l
}

// score64 is s.Score(coords) with every grid term interpolated from l
// instead of s.Maps, and the most that float32 lattices can move it:
// a node rounded to nearest moves by at most 2⁻²⁴·|v|, and trilinear
// weights are convex, so each atom's term moves by at most its weight
// times 2⁻²⁴ times its cell's largest corner magnitude. The lerp chain
// and the running sum are InterPose's.
func score64(s *Scorer, l *lattice64, coords []chem.Vec3) (score, bound float64) {
	const roundoff = 0x1p-24 // float32 round-to-nearest, relative
	spec := l.spec
	o, sp := spec.Origin(), spec.Spacing
	nx, ny, nz := spec.NPts[0], spec.NPts[1], spec.NPts[2]
	var inter float64
	for i, p := range coords {
		fx, fy, fz := (p.X-o.X)/sp, (p.Y-o.Y)/sp, (p.Z-o.Z)/sp
		if fx < 0 || fy < 0 || fz < 0 || fx > float64(nx-1) || fy > float64(ny-1) || fz > float64(nz-1) {
			inter += weightVdw * grid.OutOfBoxPenalty
			inter += s.wq[i] * grid.OutOfBoxPenalty
			inter += s.wdq[i] * grid.OutOfBoxPenalty
			continue
		}
		ix, iy, iz := min(int(fx), nx-2), min(int(fy), ny-2), min(int(fz), nz-2)
		tx, ty, tz := fx-float64(ix), fy-float64(iy), fz-float64(iz)
		ux, uy, uz := 1-tx, 1-ty, 1-tz
		i00 := (iz*ny+iy)*nx + ix
		i10, i01 := i00+nx, i00+nx*ny
		i11 := i01 + nx
		lerp := func(sl []float64) (v, corner float64) {
			for _, c := range []int{i00, i10, i01, i11} {
				corner = max(corner, math.Abs(sl[c]), math.Abs(sl[c+1]))
			}
			c00 := sl[i00]*ux + sl[i00+1]*tx
			c10 := sl[i10]*ux + sl[i10+1]*tx
			c01 := sl[i01]*ux + sl[i01+1]*tx
			c11 := sl[i11]*ux + sl[i11+1]*tx
			return (c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz, corner
		}
		a, ca := lerp(l.affinity[s.Lig.Mol.Atoms[i].Type])
		e, ce := lerp(l.elec)
		d, cd := lerp(l.desolv)
		inter += weightVdw * a
		inter += s.wq[i] * e
		inter += s.wdq[i] * d
		bound += roundoff * (weightVdw*ca + math.Abs(s.wq[i])*ce + math.Abs(s.wdq[i])*cd)
	}
	return inter + weightIntra*s.intra(coords) + s.torsTerm, bound
}

// TestLatticeRoundsFloat64SumOnce holds the 9XLR lattice with XL1's
// probes to map generation's storage rule: every node of every lattice
// is its float64 sum, recomputed here by sumLattices, clamped and
// rounded to float32 once. Nodes are read through Field.At, which is
// exact at a node of this spec (origin and spacing are integers). Then
// Score on those maps must stay within score64's bound of Score on the
// float64 sums, over TestScoreGolden's poses.
func TestLatticeRoundsFloat64SumOnce(t *testing.T) {
	rec, lig := preparePair(t, data.LargeReceptorCode, data.LargeLigandCode)
	spec := grid.Spec{Center: chem.Vec3{}, NPts: [3]int{29, 29, 29}, Spacing: 1.0}
	probes := lig.Mol.AtomTypes()
	maps, err := grid.Generate(rec, spec, probes)
	if err != nil {
		t.Fatal(err)
	}
	l := sumLattices(rec, spec, probes)

	type lattice struct {
		name string
		fld  grid.Field
		sums []float64
	}
	lattices := []lattice{
		{"e", maps.ElectrostaticField(), l.elec},
		{"d", maps.DesolvationField(), l.desolv},
	}
	for _, p := range probes {
		fld, err := maps.AffinityField(p)
		if err != nil {
			t.Fatal(err)
		}
		lattices = append(lattices, lattice{string(p), fld, l.affinity[p]})
	}
	o := spec.Origin()
	inexact := 0
	for _, lat := range lattices {
		idx := 0
		for k := 0; k < spec.NPts[2]; k++ {
			for j := 0; j < spec.NPts[1]; j++ {
				for i := 0; i < spec.NPts[0]; i++ {
					p := chem.V(o.X+float64(i), o.Y+float64(j), o.Z+float64(k))
					sum := lat.sums[idx]
					want := float64(float32(sum))
					if got := lat.fld.At(p); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s map node (%d,%d,%d): stored %v, want float32(%v) = %v", lat.name, i, j, k, got, sum, want)
					}
					if want != sum {
						inexact++
					}
					idx++
				}
			}
		}
	}
	if inexact == 0 {
		t.Fatal("every node sum is a float32: the rounding check saw no rounding")
	}

	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	ws := dock.NewWorkspace(lig)
	var worst, worstShare float64
	for _, pose := range goldenPoses(lig, 48, 2014) {
		coords := ws.Coords(pose)
		got := s.Score(coords)
		want, bound := score64(s, l, coords)
		d := math.Abs(got - want)
		if slack := 1e-12 * (math.Abs(want) + 1); d > bound+slack {
			t.Fatalf("Score on float32 lattices %v, on float64 sums %v: |Δ| = %.3g, bound %.3g", got, want, d, bound)
		}
		worst = max(worst, d)
		if bound > 0 {
			worstShare = max(worstShare, d/bound)
		}
	}
	if worst == 0 {
		t.Fatal("Score on float32 lattices equals Score on the float64 sums for every pose: the bound was not exercised")
	}
	t.Logf("%d of %d node values rounded; worst |ΔScore| %.3g kcal/mol, %.2f of its bound", inexact, len(lattices)*spec.NumPoints(), worst, worstShare)
}
