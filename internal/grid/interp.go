package grid

import (
	"fmt"
	"math"

	"repro/internal/chem"
)

// Field is one resolved map lattice: the map-name lookup done once, so
// the AD4 scorer hands InterPose its atoms' affinity lattices without a
// per-call map-key hash, and At reads one lattice at one point — the
// reference InterPose is pinned against. The zero Field is invalid;
// obtain one from AffinityField / ElectrostaticField /
// DesolvationField.
type Field struct {
	m  *Maps
	sl []float32
}

// At returns the trilinearly interpolated value at p, or
// OutOfBoxPenalty outside the grid.
func (f Field) At(p chem.Vec3) float64 {
	return f.m.interpolate(f.sl, p)
}

// AffinityField resolves the probe type's affinity lattice. Requesting
// a type without a map returns an error (a workflow wiring bug).
func (m *Maps) AffinityField(t chem.AtomType) (Field, error) {
	sl, ok := m.affinity[t]
	if !ok {
		return Field{}, fmt.Errorf("grid: no %s map for receptor %s", t, m.Receptor)
	}
	return Field{m: m, sl: sl}, nil
}

// ElectrostaticField resolves the electrostatic lattice.
func (m *Maps) ElectrostaticField() Field {
	return Field{m: m, sl: m.elec}
}

// DesolvationField resolves the desolvation lattice.
func (m *Maps) DesolvationField() Field {
	return Field{m: m, sl: m.desolv}
}

// InterPose is the intermolecular energy of one pose: for each atom i
// in ascending order, wv·affinity + wq[i]·electrostatic +
// wdq[i]·desolvation at coords[i], aff[i] being the atom's affinity
// lattice. The three lattices share one trilinear stencil, each is
// read with Field.At's lerp chain, and the weighted products are added
// to one running sum in vdW/electrostatic/desolvation order, so the
// result equals wv·aff[i].At + wq[i]·ElectrostaticField().At +
// wdq[i]·DesolvationField().At added in turn over the atoms, bit for
// bit: both widen each float32 corner to float64 before the lerps.
// The grid geometry is read once per pose, and a cell index is
// int(fx), which equals int(math.Floor(fx)) because the box test has
// already sent every fx < 0 to the penalty branch. The lerp chains are
// written out per lattice: a shared helper at this size is beyond the
// inlining budget, and a call per lattice costs more than the
// duplication.
func (m *Maps) InterPose(coords []chem.Vec3, aff []Field, wv float64, wq, wdq []float64) float64 {
	o := m.Spec.Origin()
	sp := m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	mx, my, mz := float64(nx-1), float64(ny-1), float64(nz-1)
	dy, dz := nx, nx*ny
	elecSl, desolvSl := m.elec, m.desolv
	aff, wq, wdq = aff[:len(coords)], wq[:len(coords)], wdq[:len(coords)]
	var s float64
	for i, p := range coords {
		fx := (p.X - o.X) / sp
		fy := (p.Y - o.Y) / sp
		fz := (p.Z - o.Z) / sp
		if fx < 0 || fy < 0 || fz < 0 || fx > mx || fy > my || fz > mz {
			s += wv * OutOfBoxPenalty
			s += wq[i] * OutOfBoxPenalty
			s += wdq[i] * OutOfBoxPenalty
			continue
		}
		ix, iy, iz := int(fx), int(fy), int(fz)
		if ix >= nx-1 {
			ix = nx - 2
		}
		if iy >= ny-1 {
			iy = ny - 2
		}
		if iz >= nz-1 {
			iz = nz - 2
		}
		tx := fx - float64(ix)
		ty := fy - float64(iy)
		tz := fz - float64(iz)
		i00 := (iz*ny+iy)*nx + ix
		i10 := i00 + dy
		i01 := i00 + dz
		i11 := i01 + dy
		ux, uy, uz := 1-tx, 1-ty, 1-tz
		affSl := aff[i].sl
		{
			c00 := float64(affSl[i00])*ux + float64(affSl[i00+1])*tx
			c10 := float64(affSl[i10])*ux + float64(affSl[i10+1])*tx
			c01 := float64(affSl[i01])*ux + float64(affSl[i01+1])*tx
			c11 := float64(affSl[i11])*ux + float64(affSl[i11+1])*tx
			s += wv * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := float64(elecSl[i00])*ux + float64(elecSl[i00+1])*tx
			c10 := float64(elecSl[i10])*ux + float64(elecSl[i10+1])*tx
			c01 := float64(elecSl[i01])*ux + float64(elecSl[i01+1])*tx
			c11 := float64(elecSl[i11])*ux + float64(elecSl[i11+1])*tx
			s += wq[i] * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := float64(desolvSl[i00])*ux + float64(desolvSl[i00+1])*tx
			c10 := float64(desolvSl[i10])*ux + float64(desolvSl[i10+1])*tx
			c01 := float64(desolvSl[i01])*ux + float64(desolvSl[i01+1])*tx
			c11 := float64(desolvSl[i11])*ux + float64(desolvSl[i11+1])*tx
			s += wdq[i] * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
	}
	return s
}

// interpolate performs trilinear interpolation on one map slice, each
// corner widened to float64.
func (m *Maps) interpolate(sl []float32, p chem.Vec3) float64 {
	o := m.Spec.Origin()
	fx := (p.X - o.X) / m.Spec.Spacing
	fy := (p.Y - o.Y) / m.Spec.Spacing
	fz := (p.Z - o.Z) / m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	if fx < 0 || fy < 0 || fz < 0 ||
		fx > float64(nx-1) || fy > float64(ny-1) || fz > float64(nz-1) {
		return OutOfBoxPenalty
	}
	ix := int(math.Floor(fx))
	iy := int(math.Floor(fy))
	iz := int(math.Floor(fz))
	if ix >= nx-1 {
		ix = nx - 2
	}
	if iy >= ny-1 {
		iy = ny - 2
	}
	if iz >= nz-1 {
		iz = nz - 2
	}
	tx := fx - float64(ix)
	ty := fy - float64(iy)
	tz := fz - float64(iz)
	at := func(i, j, k int) float64 {
		return float64(sl[(k*ny+j)*nx+i])
	}
	c00 := at(ix, iy, iz)*(1-tx) + at(ix+1, iy, iz)*tx
	c10 := at(ix, iy+1, iz)*(1-tx) + at(ix+1, iy+1, iz)*tx
	c01 := at(ix, iy, iz+1)*(1-tx) + at(ix+1, iy, iz+1)*tx
	c11 := at(ix, iy+1, iz+1)*(1-tx) + at(ix+1, iy+1, iz+1)*tx
	c0 := c00*(1-ty) + c10*ty
	c1 := c01*(1-ty) + c11*ty
	return c0*(1-tz) + c1*tz
}
