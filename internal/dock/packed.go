package dock

import (
	"math"
	"slices"

	"repro/internal/chem"
)

// PackedAtom is one atom of a PackedNeighbors: its position unpacked
// into plain fields plus a small caller-defined class index (e.g. the
// radial-table column of its atom type, or the atom's own index). 32
// bytes, so a candidate walk reads whole atoms from single cache lines.
type PackedAtom struct {
	X, Y, Z float64
	Cls     int32
	_       int32
}

// Hit is one in-cutoff candidate of a receptor query: its squared
// distance, its class and its index into the packed atom array (for
// callers that need the atom's position, a gradient), packed to 16
// bytes. FilterIndexed stores one per candidate at the cursor.
type Hit struct {
	R2       float64
	Cls, Idx int32
}

// PackedNeighbors is the tree's one receptor neighbour walk: a
// cell-list index over a rigid atom set that, for a query point,
// returns the candidates of every atom within the cutoff. Map
// generation (internal/grid) and Vina's scorer both read it, so neither
// scans O(N·M) atom pairs.
//
// The atoms that can contribute interaction terms (class ≥ 0) are
// copied into one contiguous array, and the box is tiled with fine
// cells of half the cutoff. Each fine cell lists the indices into that
// array of every atom that can be within the cutoff of any query point
// the cell is responsible for, in ascending packed order — Vina 1.1's
// szv_grid, in which every cell lists the receptor atoms that can
// interact with any point of it. A query resolves its fine cell with
// one multiply per axis and walks a single contiguous list.
type PackedNeighbors struct {
	cutoff   float64
	min, max chem.Vec3 // atom bounding box: the guard and the fine-cell origin
	atoms    []PackedAtom

	fidx  []int32 // per fine cell, ascending indices into atoms
	foff  []int32 // per fine cell: offset into fidx, len = #cells + 1
	fdims [3]int
	finv  float64 // reciprocal fine cell size
}

// fineSlack pads the reach of a fine cell so rounding in the
// cell-box distance can never drop an atom at exactly the cutoff: the
// dilation argument is exact in real arithmetic, and 1e-2 Å dwarfs
// every rounding term at Å-scale coordinates.
const fineSlack = 1e-2

// NewPackedNeighbors indexes the atoms of m whose class is ≥ 0. class
// is called once per atom with the atom's index.
//
// The packed order is that of a counting sort of the atoms into
// cutoff-sized raster cells (ascending z, y, x; ascending atom index
// inside a cell). Every caller sums its hits in that order, so it fixes
// every float64 sum the scorers and the maps produce: keep it exactly.
//
// unit: cutoff=Å
func NewPackedNeighbors(m *chem.Molecule, cutoff float64, class func(atom int32) int32) *PackedNeighbors {
	pts := m.Positions()
	min, max := chem.BoundingBox(pts)
	pn := &PackedNeighbors{cutoff: cutoff, min: min, max: max}
	span := max.Sub(min)
	dims := [3]int{int(span.X/cutoff) + 1, int(span.Y/cutoff) + 1, int(span.Z/cutoff) + 1}
	cell := func(p chem.Vec3) int {
		x := int(math.Floor((p.X - min.X) / cutoff))
		y := int(math.Floor((p.Y - min.Y) / cutoff))
		z := int(math.Floor((p.Z - min.Z) / cutoff))
		return (z*dims[1]+y)*dims[0] + x
	}
	start := make([]int32, dims[0]*dims[1]*dims[2]+1)
	for _, p := range pts {
		start[cell(p)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	order := make([]int32, len(pts))
	for i, p := range pts {
		c := cell(p)
		order[start[c]] = int32(i)
		start[c]++
	}
	for _, i := range order {
		if cl := class(i); cl >= 0 {
			p := pts[i]
			pn.atoms = append(pn.atoms, PackedAtom{X: p.X, Y: p.Y, Z: p.Z, Cls: cl})
		}
	}
	pn.buildFine()
	return pn
}

// buildFine precomputes the per-fine-cell candidate lists: the box is
// tiled with cells of half the cutoff, and each cell lists the index
// of every packed atom within one cutoff (plus fineSlack) of the cell
// box, in ascending packed order.
//
// Boundary cells need no special casing for the clamped out-of-box
// queries Candidates admits (up to one cutoff outside the box): a
// clamped query's preimage extends the boundary cell's box only beyond
// the atom bounding box, where dilation by the cutoff reaches no atom
// the cell-box dilation does not already reach.
//
// Two passes over the atoms, each testing only the cells around an
// atom, size every list exactly: the first counts, the second fills
// in ascending atom order.
func (pn *PackedNeighbors) buildFine() {
	h := pn.cutoff / 2
	ext := pn.max.Sub(pn.min)
	var dims [3]int
	for d, e := range [3]float64{ext.X, ext.Y, ext.Z} {
		dims[d] = max(int(math.Ceil(e/h)), 1)
	}
	ncells := dims[0] * dims[1] * dims[2]
	reach := pn.cutoff + fineSlack
	reach2 := reach * reach
	lo := pn.min
	// cells calls visit for every fine cell within reach of a. The
	// scanned range pads the reach by one cell on each side, so
	// rounding cannot hide a cell; the distance test decides.
	cells := func(a *PackedAtom, visit func(c int)) {
		var from, to [3]int
		for d, v := range [3]float64{a.X - lo.X, a.Y - lo.Y, a.Z - lo.Z} {
			from[d] = clampCell(int(math.Floor((v-reach)/h))-1, dims[d])
			to[d] = clampCell(int(math.Floor((v+reach)/h))+1, dims[d])
		}
		for z := from[2]; z <= to[2]; z++ {
			loZ := lo.Z + float64(z)*h
			dz := boxDist(a.Z, loZ, loZ+h)
			for y := from[1]; y <= to[1]; y++ {
				loY := lo.Y + float64(y)*h
				dy := boxDist(a.Y, loY, loY+h)
				row := (z*dims[1] + y) * dims[0]
				for x := from[0]; x <= to[0]; x++ {
					loX := lo.X + float64(x)*h
					dx := boxDist(a.X, loX, loX+h)
					if dx*dx+dy*dy+dz*dz <= reach2 {
						visit(row + x)
					}
				}
			}
		}
	}
	foff := make([]int32, ncells+1)
	for i := range pn.atoms {
		cells(&pn.atoms[i], func(c int) { foff[c+1]++ })
	}
	for c := 0; c < ncells; c++ {
		foff[c+1] += foff[c]
	}
	fidx := make([]int32, foff[ncells])
	next := slices.Clone(foff[:ncells])
	for i := range pn.atoms {
		cells(&pn.atoms[i], func(c int) {
			fidx[next[c]] = int32(i)
			next[c]++
		})
	}
	pn.fidx = fidx
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

// Atoms returns the packed atom array the candidate indices refer to.
// Read-only; shared with the structure itself.
func (pn *PackedNeighbors) Atoms() []PackedAtom { return pn.atoms }

// Candidates returns the index list of the fine cell p clamps into:
// candidates Atoms()[c[0]], Atoms()[c[1]], …, a superset of the packed
// atoms within the cutoff of p in ascending packed order. A point more
// than one cutoff outside the atom bounding box has no candidate.
// Read-only; shared with the structure itself.
func (pn *PackedNeighbors) Candidates(p chem.Vec3) []int32 {
	lo, hi, cut := pn.min, pn.max, pn.cutoff
	if p.X < lo.X-cut || p.X > hi.X+cut ||
		p.Y < lo.Y-cut || p.Y > hi.Y+cut ||
		p.Z < lo.Z-cut || p.Z > hi.Z+cut {
		return nil
	}
	cx := clampCell(int((p.X-lo.X)*pn.finv), pn.fdims[0])
	cy := clampCell(int((p.Y-lo.Y)*pn.finv), pn.fdims[1])
	cz := clampCell(int((p.Z-lo.Z)*pn.finv), pn.fdims[2])
	c := (cz*pn.fdims[1]+cy)*pn.fdims[0] + cx
	return pn.fidx[pn.foff[c]:pn.foff[c+1]]
}

// FilterIndexed appends to hits, from cursor m on, every candidate
// atoms[idx[0]], atoms[idx[1]], … within cut2 of the query point,
// preserving list order, and returns the advanced cursor. r² is
// (a−p)² summed over x, y and z, as chem.Vec3.Dist2 computes it, every
// product rounded on its own (no fused multiply-add on any
// architecture). The
// loop is branch-free: every candidate is stored at the cursor and the
// cursor advances only on a hit, so the candidates beyond the cutoff
// cost no branch mispredictions. hits must have power-of-two length
// ≥ m + len(idx): the store indexes with cursor&(len-1), which the
// compiler proves in bounds.
//
// unit: cut2=Å2
func FilterIndexed(atoms []PackedAtom, idx []int32, px, py, pz, cut2 float64, hits []Hit, m int) int {
	mask := len(hits) - 1
	for _, i := range idx {
		a := &atoms[i]
		dx := a.X - px
		dy := a.Y - py
		dz := a.Z - pz
		r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
		h := &hits[m&mask]
		h.R2 = r2
		h.Cls = a.Cls
		h.Idx = i
		hit := 0
		if r2 <= cut2 {
			hit = 1
		}
		m += hit
	}
	return m
}
