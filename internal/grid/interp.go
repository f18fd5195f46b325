package grid

import (
	"fmt"
	"math"

	"repro/internal/chem"
)

// InBox reports whether p lies inside the grid volume.
func (m *Maps) InBox(p chem.Vec3) bool {
	o := m.Spec.Origin()
	d := p.Sub(o)
	return d.X >= 0 && d.Y >= 0 && d.Z >= 0 &&
		d.X <= float64(m.Spec.NPts[0]-1)*m.Spec.Spacing &&
		d.Y <= float64(m.Spec.NPts[1]-1)*m.Spec.Spacing &&
		d.Z <= float64(m.Spec.NPts[2]-1)*m.Spec.Spacing
}

// Field is one resolved map lattice: the map-name lookup done once, so
// the AD4 scorer hands InterAccum its atoms' affinity lattices without
// a per-call map-key hash, and At reads one lattice at one point — the
// reference InterAccum is pinned against. The zero Field is invalid;
// obtain one from AffinityField / ElectrostaticField /
// DesolvationField.
type Field struct {
	m  *Maps
	sl []float64
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

// InterAccum accumulates one ligand atom's three weighted
// intermolecular terms across a batch of poses:
//
//	acc[p] += wv·affinity(pt) + wq·electrostatic(pt) + wdq·desolvation(pt)
//
// where pt is (xs[p·stride], ys[p·stride], zs[p·stride]) — the caller
// passes component slices pre-offset to the atom; the per-pose AD4
// scorer is the one-pose case, stride 1 over one-element slices. The
// three lattices share one trilinear stencil, each is read with
// Field.At's lerp chain, and the weighted products are added to acc[p]
// in vdW/electrostatic/desolvation order, so every term is
// bit-identical to wv·aff.At(pt), wq·ElectrostaticField().At(pt),
// wdq·DesolvationField().At(pt) added in turn. Hoisting the grid
// geometry out of the pose loop is the point: the per-pose body is
// stencil arithmetic and lattice loads only.
func (m *Maps) InterAccum(aff Field, xs, ys, zs []float64, stride int, wv, wq, wdq float64, acc []float64) {
	interAccum(m, aff.sl, m.elec, m.desolv, xs, ys, zs, stride, wv, wq, wdq, acc)
}

// InterAccumFast is the tolerance-path InterAccum: the same stencil,
// clamping and vdW/electrostatic/desolvation term order, but the grid
// coordinate is scaled by the reciprocal spacing instead of divided,
// and the lerp chains plus weighted accumulation run in float32 over
// the interleaved float32 triples, into a float32 accumulator. It
// differs from InterAccum by float32 rounding of the arithmetic only —
// relative ~1e-7 of the term magnitudes, including the out-of-box
// penalty — which callers carry inside their pinned tolerance
// envelope (the fast scorers' FastAbsTol/FastRelTol bound).
func (m *Maps) InterAccumFast(t chem.AtomType, xs, ys, zs []float64, stride int, wv, wq, wdq float64, acc []float32) {
	interAccumFast(m, m.fastTriple(t), xs, ys, zs, stride, wv, wq, wdq, acc)
}

func interAccumFast(m *Maps, aed []float32, xs, ys, zs []float64, stride int, wv, wq, wdq float64, acc []float32) {
	o := m.Spec.Origin()
	inv := 1 / m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	mx, my, mz := float64(nx-1), float64(ny-1), float64(nz-1)
	dy, dz := nx, nx*ny
	wvf, wqf, wdqf := float32(wv), float32(wq), float32(wdq)
	penalty := (wvf + wqf + wdqf) * float32(OutOfBoxPenalty)
	for p := range acc {
		a := p * stride
		fx := (xs[a] - o.X) * inv
		fy := (ys[a] - o.Y) * inv
		fz := (zs[a] - o.Z) * inv
		if fx < 0 || fy < 0 || fz < 0 || fx > mx || fy > my || fz > mz {
			acc[p] += penalty
			continue
		}
		ix := int(fx)
		iy := int(fy)
		iz := int(fz)
		if ix >= nx-1 {
			ix = nx - 2
		}
		if iy >= ny-1 {
			iy = ny - 2
		}
		if iz >= nz-1 {
			iz = nz - 2
		}
		tx := float32(fx - float64(ix))
		ty := float32(fy - float64(iy))
		tz := float32(fz - float64(iz))
		i00 := (iz*ny+iy)*nx + ix
		i10 := i00 + dy
		i01 := i00 + dz
		i11 := i01 + dy
		ux, uy, uz := 1-tx, 1-ty, 1-tz
		s := acc[p]
		// Interleaved [affinity, elec, desolv]: each corner pair's six
		// values arrive in one contiguous 24-byte read, so the three
		// lerp chains share four such reads instead of touching twelve
		// scattered corners. The chains and the term order match the
		// separate-lattice form exactly.
		q00 := aed[3*i00 : 3*i00+6]
		q10 := aed[3*i10 : 3*i10+6]
		q01 := aed[3*i01 : 3*i01+6]
		q11 := aed[3*i11 : 3*i11+6]
		a00 := q00[0]*ux + q00[3]*tx
		a10 := q10[0]*ux + q10[3]*tx
		a01 := q01[0]*ux + q01[3]*tx
		a11 := q11[0]*ux + q11[3]*tx
		s += wvf * ((a00*uy+a10*ty)*uz + (a01*uy+a11*ty)*tz)
		e00 := q00[1]*ux + q00[4]*tx
		e10 := q10[1]*ux + q10[4]*tx
		e01 := q01[1]*ux + q01[4]*tx
		e11 := q11[1]*ux + q11[4]*tx
		s += wqf * ((e00*uy+e10*ty)*uz + (e01*uy+e11*ty)*tz)
		d00 := q00[2]*ux + q00[5]*tx
		d10 := q10[2]*ux + q10[5]*tx
		d01 := q01[2]*ux + q01[5]*tx
		d11 := q11[2]*ux + q11[5]*tx
		s += wdqf * ((d00*uy+d10*ty)*uz + (d01*uy+d11*ty)*tz)
		acc[p] = s
	}
}

func interAccum(m *Maps, affSl, elecSl, desolvSl []float64, xs, ys, zs []float64, stride int, wv, wq, wdq float64, acc []float64) {
	o := m.Spec.Origin()
	sp := m.Spec.Spacing
	nx, ny, nz := m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2]
	mx, my, mz := float64(nx-1), float64(ny-1), float64(nz-1)
	dy, dz := nx, nx*ny
	for p := range acc {
		a := p * stride
		fx := (xs[a] - o.X) / sp
		fy := (ys[a] - o.Y) / sp
		fz := (zs[a] - o.Z) / sp
		if fx < 0 || fy < 0 || fz < 0 || fx > mx || fy > my || fz > mz {
			s := acc[p]
			s += wv * OutOfBoxPenalty
			s += wq * OutOfBoxPenalty
			s += wdq * OutOfBoxPenalty
			acc[p] = s
			continue
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
		// The lerp chain per lattice is interpolate's exactly: corner
		// index arithmetic and operation order match the at() closure
		// form, so each term is bit-identical to Field.At. Written out
		// per lattice (a shared helper at this size is beyond the
		// inlining budget and a call per lattice costs more than the
		// duplication).
		i00 := (iz*ny+iy)*nx + ix
		i10 := i00 + dy
		i01 := i00 + dz
		i11 := i01 + dy
		ux, uy, uz := 1-tx, 1-ty, 1-tz
		s := acc[p]
		{
			c00 := affSl[i00]*ux + affSl[i00+1]*tx
			c10 := affSl[i10]*ux + affSl[i10+1]*tx
			c01 := affSl[i01]*ux + affSl[i01+1]*tx
			c11 := affSl[i11]*ux + affSl[i11+1]*tx
			s += wv * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := elecSl[i00]*ux + elecSl[i00+1]*tx
			c10 := elecSl[i10]*ux + elecSl[i10+1]*tx
			c01 := elecSl[i01]*ux + elecSl[i01+1]*tx
			c11 := elecSl[i11]*ux + elecSl[i11+1]*tx
			s += wq * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		{
			c00 := desolvSl[i00]*ux + desolvSl[i00+1]*tx
			c10 := desolvSl[i10]*ux + desolvSl[i10+1]*tx
			c01 := desolvSl[i01]*ux + desolvSl[i01+1]*tx
			c11 := desolvSl[i11]*ux + desolvSl[i11+1]*tx
			s += wdq * ((c00*uy+c10*ty)*uz + (c01*uy+c11*ty)*tz)
		}
		acc[p] = s
	}
}

// interpolate performs trilinear interpolation on one map slice.
func (m *Maps) interpolate(sl []float64, p chem.Vec3) float64 {
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
		return sl[(k*ny+j)*nx+i]
	}
	c00 := at(ix, iy, iz)*(1-tx) + at(ix+1, iy, iz)*tx
	c10 := at(ix, iy+1, iz)*(1-tx) + at(ix+1, iy+1, iz)*tx
	c01 := at(ix, iy, iz+1)*(1-tx) + at(ix+1, iy, iz+1)*tx
	c11 := at(ix, iy+1, iz+1)*(1-tx) + at(ix+1, iy+1, iz+1)*tx
	c0 := c00*(1-ty) + c10*ty
	c1 := c01*(1-ty) + c11*ty
	return c0*(1-tz) + c1*tz
}
