package dock

import (
	"math"

	"repro/internal/chem"
)

// PackedAtom is one scoring-relevant atom of a PackedNeighbors cell:
// its position unpacked into plain fields plus a small caller-defined
// class index (e.g. the radial-table column of its atom type). 32
// bytes, so a packed cell walk streams whole atoms from consecutive
// cache lines.
type PackedAtom struct {
	X, Y, Z float64
	Cls     int32
	_       int32
}

// cellEntry is one non-empty neighbor cell in a base cell's
// precomputed neighborhood list: the packed-atom span [s, e) plus a
// conservative prune sphere. A query point lying outside the sphere —
// center (cx, cy, cz), squared bound (cutoff+R+pruneSlack)² — cannot
// be within the cutoff of any atom of the cell, so the walk drops the
// whole span with one branch-free distance test. Single precision is
// ample: the bound's radius carries pruneSlack of margin, orders of
// magnitude above the float32 rounding of Å-scale coordinates, so the
// triangle-inequality argument is unaffected.
type cellEntry struct {
	cx, cy, cz float32
	bound      float32
	s, e       int32
}

// PackedNeighbors is a scoring-ready mirror of a NeighborList: per
// cell, the atoms that can contribute interaction terms (class ≥ 0)
// are copied into one contiguous array in exactly the CSR order of the
// source list. The scorers — per pose and batched — walk it instead of
// the index CSR, replacing the per-candidate index load plus random
// position gather of that layout with sequential streaming loads — the
// term sequence (and so the float64 accumulation order) is unchanged,
// because packing only drops atoms that never produce a term.
//
// The neighborhood walk itself is precomputed: for every base cell,
// the (≤27) surrounding cells that exist and are non-empty are stored
// as a contiguous cellEntry list in ascending raster order — the exact
// cell order NeighborList.Spans walks. A query resolves its base cell
// once and scans only that list, so the per-query geometry is a handful
// of prune-sphere tests over prefetch-friendly consecutive entries,
// with no boundary or emptiness branches at all.
type PackedNeighbors struct {
	nl      *NeighborList
	atoms   []PackedAtom
	aoff    []int32     // per cell: packed-atom span offsets, len = #cells + 1
	entries []cellEntry // concatenated per-base-cell neighbor lists
	eoff    []int32     // per cell: offset into entries, len = #cells + 1

	// Fine-cell candidate lists (see buildFine): per fine cell, the
	// packed atoms that can be within the cutoff of any query point the
	// cell is responsible for, copied in ascending packed order. nil
	// when the receptor is too large for the duplicated storage; Spans
	// then falls back to the coarse entry walk.
	fatoms []PackedAtom
	foff   []int32 // per fine cell: offset into fatoms, len = #cells + 1
	fdims  [3]int
	finv   float64 // reciprocal fine cell size
}

// pruneSlack inflates the prune-sphere radius so rounding — of the
// float32 center and bound, and of the query's single-precision
// center-distance evaluation — can never drop a cell holding an atom
// at exactly the cutoff: the triangle-inequality argument is exact in
// real arithmetic, and 1e-2 Å of radius dwarfs every rounding term at
// Å-scale coordinates while costing nothing against a ~15 Å bound.
const pruneSlack = 1e-2

// NewPackedNeighbors packs every atom of nl whose class is ≥ 0,
// preserving the source CSR span order cell by cell, and precomputes
// each cell's neighborhood entry list. class is called once per atom
// with the atom's index.
func NewPackedNeighbors(nl *NeighborList, class func(atom int32) int32) *PackedNeighbors {
	dims := nl.dims
	ncells := dims[0] * dims[1] * dims[2]
	pn := &PackedNeighbors{
		nl:    nl,
		atoms: make([]PackedAtom, 0, len(nl.idx)),
		aoff:  make([]int32, ncells+1),
		eoff:  make([]int32, ncells+1),
	}
	// Pack atoms cell by cell and build each non-empty cell's span and
	// prune sphere.
	type cellSpan struct {
		entry cellEntry
		full  bool
	}
	cells := make([]cellSpan, ncells)
	for c := 0; c < ncells; c++ {
		s := int32(len(pn.atoms))
		for _, aj := range nl.idx[nl.start[c]:nl.start[c+1]] {
			cl := class(aj)
			if cl < 0 {
				continue
			}
			p := nl.pos[aj]
			pn.atoms = append(pn.atoms, PackedAtom{X: p.X, Y: p.Y, Z: p.Z, Cls: cl})
		}
		e := int32(len(pn.atoms))
		pn.aoff[c+1] = e
		if e > s {
			cells[c] = cellSpan{entry: pruneSphere(pn.atoms[s:e], nl.cutoff, s, e), full: true}
		}
	}
	// Concatenate every base cell's non-empty neighbors in the
	// ascending raster order NeighborList.Spans walks them.
	for z := 0; z < dims[2]; z++ {
		for y := 0; y < dims[1]; y++ {
			for x := 0; x < dims[0]; x++ {
				b := (z*dims[1]+y)*dims[0] + x
				for dz := -1; dz <= 1; dz++ {
					nz := z + dz
					if nz < 0 || nz >= dims[2] {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						ny := y + dy
						if ny < 0 || ny >= dims[1] {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							nx := x + dx
							if nx < 0 || nx >= dims[0] {
								continue
							}
							if cs := &cells[(nz*dims[1]+ny)*dims[0]+nx]; cs.full {
								pn.entries = append(pn.entries, cs.entry)
							}
						}
					}
				}
				pn.eoff[b+1] = int32(len(pn.entries))
			}
		}
	}
	pn.buildFine()
	return pn
}

// fineGatherMaxAtoms gates the fine-cell candidate lists: each packed
// atom is duplicated into every fine cell it can interact with (~80×
// at half-cutoff cells), so the lists are built only when the packed
// set is small enough that the duplicated storage stays in the tens of
// megabytes. Above the gate Spans uses the coarse entry walk.
const fineGatherMaxAtoms = 8192

// buildFine precomputes per-fine-cell candidate lists: the box is
// tiled with cells of half the cutoff, and each cell stores a copy of
// every packed atom within one cutoff (plus pruneSlack) of the cell
// box, in ascending packed order. A query resolves its fine cell with
// one multiply per axis and walks a single contiguous span — the
// candidate volume is the cell box dilated by the cutoff (~4× tighter
// than the coarse 27-cell neighborhood after its prune spheres), and
// the per-query geometry tests disappear entirely.
//
// Order and membership of Gather's output are unchanged: the span
// holds a superset of the in-cutoff atoms in ascending packed order —
// the order the coarse raster walk emits them — and the same exact
// r² ≤ cut² test decides membership.
//
// Boundary cells need no special casing for the clamped out-of-box
// queries Spans admits (up to one cutoff outside the box): a clamped
// query's preimage extends the boundary cell's box only beyond the
// atom bounding box, where dilation by the cutoff reaches no atom the
// cell-box dilation does not already reach.
func (pn *PackedNeighbors) buildFine() {
	if len(pn.atoms) == 0 || len(pn.atoms) > fineGatherMaxAtoms {
		return
	}
	nl := pn.nl
	h := nl.cutoff / 2
	ext := nl.max.Sub(nl.min)
	var dims [3]int
	for d, e := range [3]float64{ext.X, ext.Y, ext.Z} {
		n := int(math.Ceil(e / h))
		if n < 1 {
			n = 1
		}
		dims[d] = n
	}
	ncells := dims[0] * dims[1] * dims[2]
	reach := nl.cutoff + pruneSlack
	reach2 := reach * reach
	foff := make([]int32, ncells+1)
	var fatoms []PackedAtom
	c := 0
	for z := 0; z < dims[2]; z++ {
		loZ := nl.min.Z + float64(z)*h
		for y := 0; y < dims[1]; y++ {
			loY := nl.min.Y + float64(y)*h
			for x := 0; x < dims[0]; x++ {
				loX := nl.min.X + float64(x)*h
				for i := range pn.atoms {
					a := &pn.atoms[i]
					dx := boxDist(a.X, loX, loX+h)
					dy := boxDist(a.Y, loY, loY+h)
					dz := boxDist(a.Z, loZ, loZ+h)
					if dx*dx+dy*dy+dz*dz <= reach2 {
						fatoms = append(fatoms, *a)
					}
				}
				c++
				foff[c] = int32(len(fatoms))
			}
		}
	}
	pn.fatoms = fatoms
	pn.foff = foff
	pn.fdims = dims
	pn.finv = 1 / h
}

// clampCell clamps a raw fine-cell coordinate into [0, n): queries up
// to one cutoff outside the box land in the nearest boundary cell,
// whose candidate list covers them (see buildFine).
func clampCell(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// boxDist is the distance from v to the interval [lo, hi] (zero
// inside).
func boxDist(v, lo, hi float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > hi {
		return v - hi
	}
	return 0
}

// pruneSphere builds the conservative prune-sphere entry of one cell's
// packed atoms: centered at their bounding-box center with squared
// bound (cutoff + max distance from that center + slack)².
func pruneSphere(sp []PackedAtom, cutoff float64, s, e int32) cellEntry {
	minX, minY, minZ := sp[0].X, sp[0].Y, sp[0].Z
	maxX, maxY, maxZ := minX, minY, minZ
	for i := 1; i < len(sp); i++ {
		a := &sp[i]
		if a.X < minX {
			minX = a.X
		} else if a.X > maxX {
			maxX = a.X
		}
		if a.Y < minY {
			minY = a.Y
		} else if a.Y > maxY {
			maxY = a.Y
		}
		if a.Z < minZ {
			minZ = a.Z
		} else if a.Z > maxZ {
			maxZ = a.Z
		}
	}
	cx, cy, cz := (minX+maxX)/2, (minY+maxY)/2, (minZ+maxZ)/2
	var maxD2 float64
	for i := range sp {
		a := &sp[i]
		dx, dy, dz := a.X-cx, a.Y-cy, a.Z-cz
		if d2 := dx*dx + dy*dy + dz*dz; d2 > maxD2 {
			maxD2 = d2
		}
	}
	r := cutoff + math.Sqrt(maxD2) + pruneSlack
	return cellEntry{
		cx: float32(cx), cy: float32(cy), cz: float32(cz),
		bound: float32(r * r),
		s:     s, e: e,
	}
}

// Atoms returns the packed atom array the entry spans refer to.
// Read-only; shared with the structure itself.
func (pn *PackedNeighbors) Atoms() []PackedAtom { return pn.atoms }

// Spans locates the candidates of query point p: it writes [start, end)
// ranges into out and returns the atom array they index plus their
// count. Every packed atom within the cutoff of p lies in one of the
// ranges, and walking them in order visits candidates in ascending
// packed order — the order NeighborList.Spans-driven sequential scoring
// visits them — so a caller that distance-filters them with FilterSpan
// (Gather into one buffer, the per-pose scorer chunk by chunk) sees the
// same hit sequence. No range is returned for a point more than one
// cutoff outside the atom bounding box.
//
// With fine-cell lists the answer is one pre-pruned range of the
// clamp-located fine cell. Above fineGatherMaxAtoms it is the base
// cell's neighborhood entries whose prune sphere contains p, tested
// branch-free (unconditional store, conditionally advanced count). The
// base cell is clamped into the grid like NeighborList queries: for
// points outside the grid but inside the guard box the clamped
// neighborhood is a superset of the exact one whose extra cells lie
// entirely beyond the cutoff.
func (pn *PackedNeighbors) Spans(p chem.Vec3, out *[27][2]int32) ([]PackedAtom, int) {
	nl := pn.nl
	if !nl.near(p) {
		return nil, 0
	}
	if pn.fatoms != nil {
		out[0] = pn.fineRange(p)
		return pn.fatoms, 1
	}
	b := nl.index(nl.cellOf(p))
	pxf, pyf, pzf := float32(p.X), float32(p.Y), float32(p.Z)
	ns := 0
	for _, en := range pn.entries[pn.eoff[b]:pn.eoff[b+1]] {
		ex := en.cx - pxf
		ey := en.cy - pyf
		ez := en.cz - pzf
		out[ns] = [2]int32{en.s, en.e}
		keep := 0
		if ex*ex+ey*ey+ez*ez <= en.bound {
			keep = 1
		}
		ns += keep
	}
	return pn.atoms, ns
}

// fineRange returns the candidate range, in fatoms, of the fine cell
// that p clamps into.
func (pn *PackedNeighbors) fineRange(p chem.Vec3) [2]int32 {
	nl := pn.nl
	cx := clampCell(int((p.X-nl.min.X)*pn.finv), pn.fdims[0])
	cy := clampCell(int((p.Y-nl.min.Y)*pn.finv), pn.fdims[1])
	cz := clampCell(int((p.Z-nl.min.Z)*pn.finv), pn.fdims[2])
	c := (cz*pn.fdims[1]+cy)*pn.fdims[0] + cx
	return [2]int32{pn.foff[c], pn.foff[c+1]}
}

// Gather collects into hits every packed atom within cut2 (squared
// cutoff) of p, in Spans order, and returns the count. hits must be a
// power-of-two-length scratch at least as long as Atoms() (see
// Batch.Hits).
//
// unit: cut2=Å2
func (pn *PackedNeighbors) Gather(p chem.Vec3, cut2 float64, hits []Hit) int {
	if pn.fatoms != nil && pn.nl.near(p) {
		// One span: skip the span array (zeroed per call) and the loop.
		sp := pn.fineRange(p)
		return FilterSpan(pn.fatoms[sp[0]:sp[1]], p.X, p.Y, p.Z, cut2, hits, 0)
	}
	var spans [27][2]int32
	atoms, ns := pn.Spans(p, &spans)
	m := 0
	for _, sp := range spans[:ns] {
		m = FilterSpan(atoms[sp[0]:sp[1]], p.X, p.Y, p.Z, cut2, hits, m)
	}
	return m
}

// FilterSpan appends to hits, from cursor m on, every candidate of sp
// within cut2 of the query point, preserving span order, and returns
// the advanced cursor. It is the one radius filter of the exact and
// fast kernels — PackedNeighbors.Gather runs it over each candidate
// span, the per-pose scorers over one chunk of a span at a time, the
// window path over the shared-gather span — so every caller emits the
// same hit sequence from the same squared-distance expression and the
// same exact r² ≤ cut² test. The loop is branch-free: every candidate
// is stored at the cursor and the cursor advances only on a hit, so
// the ~75% of candidates beyond the cutoff cost no branch
// mispredictions. hits must have power-of-two length ≥ m + len(sp)
// (see Batch.Hits): the store indexes with cursor&(len-1), which the
// compiler proves in bounds.
//
// unit: cut2=Å2
func FilterSpan(sp []PackedAtom, px, py, pz, cut2 float64, hits []Hit, m int) int {
	mask := len(hits) - 1
	j := 0
	for ; j+1 < len(sp); j += 2 {
		ra := &sp[j]
		rb := &sp[j+1]
		dx0 := ra.X - px
		dy0 := ra.Y - py
		dz0 := ra.Z - pz
		r20 := dx0*dx0 + dy0*dy0 + dz0*dz0
		h := &hits[m&mask]
		h.R2 = r20
		h.Cls = ra.Cls
		hit := 0
		if r20 <= cut2 {
			hit = 1
		}
		m += hit
		dx1 := rb.X - px
		dy1 := rb.Y - py
		dz1 := rb.Z - pz
		r21 := dx1*dx1 + dy1*dy1 + dz1*dz1
		h = &hits[m&mask]
		h.R2 = r21
		h.Cls = rb.Cls
		hit = 0
		if r21 <= cut2 {
			hit = 1
		}
		m += hit
	}
	if j < len(sp) {
		ra := &sp[j]
		dx := ra.X - px
		dy := ra.Y - py
		dz := ra.Z - pz
		r2 := dx*dx + dy*dy + dz*dz
		h := &hits[m&mask]
		h.R2 = r2
		h.Cls = ra.Cls
		hit := 0
		if r2 <= cut2 {
			hit = 1
		}
		m += hit
	}
	return m
}

// GatherShared appends to out a copy of every packed atom within reach
// of p — the window-shared gather of incumbent-anchored screening. The
// caller passes reach = cutoff + D where D bounds how far the querying
// ligand atom can drift from p across the window's poses; by the
// triangle inequality the appended set is then a superset of every
// such pose's true in-cutoff neighbor set, so rescoring a pose against
// it with the exact r² ≤ cutoff² test reproduces the per-pose
// Gather hit sequence bit for bit (membership AND order: candidates
// are appended in ascending packed order, the order Gather emits).
// pruneSlack is added to reach internally, mirroring the prune-sphere
// slack, so coordinate rounding at the reach surface can never drop a
// candidate the real-arithmetic argument keeps.
//
// Unlike Gather, the reach can exceed one cell edge, so the walk
// derives its own cell range instead of using the precomputed 27-cell
// neighborhoods; it runs once per window (not once per pose), so it
// trades the per-pose branch-free machinery for simplicity. Returns
// the number of atoms appended.
//
// unit: reach=Å
func (pn *PackedNeighbors) GatherShared(p chem.Vec3, reach float64, out *[]PackedAtom) int {
	nl := pn.nl
	r := reach + pruneSlack
	if p.X < nl.min.X-r || p.X > nl.max.X+r ||
		p.Y < nl.min.Y-r || p.Y > nl.max.Y+r ||
		p.Z < nl.min.Z-r || p.Z > nl.max.Z+r {
		return 0
	}
	r2 := r * r
	lo := nl.cellOf(chem.V(p.X-r, p.Y-r, p.Z-r))
	hi := nl.cellOf(chem.V(p.X+r, p.Y+r, p.Z+r))
	for d := 0; d < 3; d++ {
		if lo[d] < 0 {
			lo[d] = 0
		}
		if hi[d] >= nl.dims[d] {
			hi[d] = nl.dims[d] - 1
		}
	}
	n0 := len(*out)
	// Ascending z,y,x — ascending cell index — so appended candidates
	// stay in ascending packed order.
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			row := (z*nl.dims[1] + y) * nl.dims[0]
			s := pn.aoff[row+lo[0]]
			e := pn.aoff[row+hi[0]+1]
			for i := s; i < e; i++ {
				a := &pn.atoms[i]
				dx := a.X - p.X
				dy := a.Y - p.Y
				dz := a.Z - p.Z
				if dx*dx+dy*dy+dz*dz <= r2 {
					*out = append(*out, *a)
				}
			}
		}
	}
	return len(*out) - n0
}
