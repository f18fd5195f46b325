package dock

import (
	"math"

	"repro/internal/chem"
)

// NeighborList is a cell-list spatial index over a rigid atom set: the
// one cell list of the tree. Map generation (internal/grid) walks its
// index CSR per lattice point, and the Vina scorer builds its
// PackedNeighbors from it, so neither scans O(N·M) atom pairs. Atom
// indices are stored in a flat CSR layout (one []int32 plus per-cell
// offsets) so a query walks contiguous memory instead of chasing
// per-bucket slice headers.
type NeighborList struct {
	cutoff   float64
	invCut   float64   // 1/cutoff when that is exact (cutoff a power of two), else 0
	min, max chem.Vec3 // atom bounding box, for the cutoff-expanded guard
	dims     [3]int
	start    []int32 // CSR offsets, len = #cells + 1
	idx      []int32 // atom indices grouped by cell
	pos      []chem.Vec3
}

// NewNeighborList indexes the molecule's atoms with the given cutoff.
//
// unit: cutoff=Å
func NewNeighborList(m *chem.Molecule, cutoff float64) *NeighborList {
	pts := m.Positions()
	min, max := chem.BoundingBox(pts)
	nl := &NeighborList{cutoff: cutoff, min: min, max: max, pos: pts}
	// When the cutoff is a power of two (the production 8 Å always is),
	// dividing by it and multiplying by its reciprocal are both exact
	// scalings and so bit-identical for every input — cellOf can use the
	// multiply and spare every query three divides without any cell
	// assignment ever changing.
	if b := math.Float64bits(cutoff); b&((1<<52)-1) == 0 && cutoff > 0 {
		nl.invCut = 1 / cutoff
	}
	span := max.Sub(min)
	nl.dims[0] = int(span.X/cutoff) + 1
	nl.dims[1] = int(span.Y/cutoff) + 1
	nl.dims[2] = int(span.Z/cutoff) + 1
	ncells := nl.dims[0] * nl.dims[1] * nl.dims[2]
	nl.start = make([]int32, ncells+1)
	for _, p := range pts {
		nl.start[nl.index(nl.cellOf(p))+1]++
	}
	for c := 0; c < ncells; c++ {
		nl.start[c+1] += nl.start[c]
	}
	nl.idx = make([]int32, len(pts))
	cursor := make([]int32, ncells)
	copy(cursor, nl.start[:ncells])
	for i, p := range pts {
		b := nl.index(nl.cellOf(p))
		nl.idx[cursor[b]] = int32(i)
		cursor[b]++
	}
	return nl
}

func (nl *NeighborList) cellOf(p chem.Vec3) [3]int {
	if inv := nl.invCut; inv != 0 {
		return [3]int{
			int(math.Floor((p.X - nl.min.X) * inv)),
			int(math.Floor((p.Y - nl.min.Y) * inv)),
			int(math.Floor((p.Z - nl.min.Z) * inv)),
		}
	}
	return [3]int{
		int(math.Floor((p.X - nl.min.X) / nl.cutoff)),
		int(math.Floor((p.Y - nl.min.Y) / nl.cutoff)),
		int(math.Floor((p.Z - nl.min.Z) / nl.cutoff)),
	}
}

func (nl *NeighborList) index(c [3]int) int {
	for i := 0; i < 3; i++ {
		if c[i] < 0 {
			c[i] = 0
		} else if c[i] >= nl.dims[i] {
			c[i] = nl.dims[i] - 1
		}
	}
	return (c[2]*nl.dims[1]+c[1])*nl.dims[0] + c[0]
}

// near reports whether p lies inside the cutoff-expanded atom bounding
// box; a point outside it has no neighbour within the cutoff.
func (nl *NeighborList) near(p chem.Vec3) bool {
	return !(p.X < nl.min.X-nl.cutoff || p.X > nl.max.X+nl.cutoff ||
		p.Y < nl.min.Y-nl.cutoff || p.Y > nl.max.Y+nl.cutoff ||
		p.Z < nl.min.Z-nl.cutoff || p.Z > nl.max.Z+nl.cutoff)
}

// Spans writes the CSR [start, end) ranges of the (≤27) cells around p
// into out and returns how many are non-empty. Callers iterate
// Indices()[span[0]:span[1]] and distance-filter against Positions()
// themselves, keeping their per-atom hot loop free of function calls.
//
// The early-out is the cutoff-expanded atom bounding box (near).
func (nl *NeighborList) Spans(p chem.Vec3, out *[27][2]int32) int {
	if !nl.near(p) {
		return 0
	}
	c := nl.cellOf(p)
	n := 0
	for dz := -1; dz <= 1; dz++ {
		z := c[2] + dz
		if z < 0 || z >= nl.dims[2] {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			y := c[1] + dy
			if y < 0 || y >= nl.dims[1] {
				continue
			}
			row := (z*nl.dims[1] + y) * nl.dims[0]
			for dx := -1; dx <= 1; dx++ {
				x := c[0] + dx
				if x < 0 || x >= nl.dims[0] {
					continue
				}
				b := row + x
				if s, e := nl.start[b], nl.start[b+1]; s < e {
					out[n] = [2]int32{s, e}
					n++
				}
			}
		}
	}
	return n
}

// Indices returns the CSR atom-index array Spans ranges refer to.
// Read-only; shared with the list itself.
func (nl *NeighborList) Indices() []int32 { return nl.idx }

// Positions returns the indexed atom positions, ordered by atom index.
// Read-only; shared with the list itself.
func (nl *NeighborList) Positions() []chem.Vec3 { return nl.pos }
