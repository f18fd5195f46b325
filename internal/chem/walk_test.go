package chem

import "fmt"

// The torsion-tree kinematics the docking code no longer runs: the
// oracles dock.Ligand's tree of frames is tested against.

// ApplyTorsions returns a copy of base coordinates with each torsion
// rotated by the corresponding angle (radians). Torsions are applied
// in tree order, so inner rotations carry outer branches with them.
func (t *TorsionTree) ApplyTorsions(base []Vec3, angles []float64) []Vec3 {
	return t.ApplyTorsionsInto(nil, base, angles)
}

// ApplyTorsionsInto is ApplyTorsions writing into dst's storage (grown
// as needed). dst must not alias base. It returns the filled slice. Each torsion, in
// tree order, rotates its moved atoms by its angle about its axis as
// the walk has placed the axis atoms at that step; a zero angle is
// skipped.
func (t *TorsionTree) ApplyTorsionsInto(dst, base []Vec3, angles []float64) []Vec3 {
	if len(angles) != len(t.Torsions) {
		panic(fmt.Sprintf("chem: %d torsion angles for %d torsions", len(angles), len(t.Torsions)))
	}
	out := append(dst[:0], base...)
	for k := range t.Torsions {
		if angles[k] == 0 {
			continue
		}
		tor := &t.Torsions[k]
		a := out[tor.Axis1]
		b := out[tor.Axis2]
		q := AxisAngleQuat(b.Sub(a), angles[k])
		for _, i := range tor.Moved {
			if i == tor.Axis2 {
				continue
			}
			out[i] = q.Rotate(out[i].Sub(b)).Add(b)
		}
	}
	return out
}

// PlaceInto applies a pose's rigid-body transform — the unit
// quaternion q about the origin, then the translation tr — to frame,
// writing dst. dst may alias frame.
func PlaceInto(dst, frame []Vec3, q Quat, tr Vec3) {
	for i, x := range frame {
		dst[i] = q.Rotate(x).Add(tr)
	}
}

// RigidUnits partitions the nAtoms atoms of the conformation into
// rigid units: two atoms share a unit exactly when every torsion
// either moves both or neither, so their pairwise distance is
// invariant under any torsion angles (and under the rigid-body
// transform). Unit 0 is the root fragment. The returned slice maps
// atom index → unit id, with ids dense in [0, numUnits).
//
// It is the oracle for dock.Ligand.Owners, whose frame ids equal these
// unit ids on every prepared ligand.
func (t *TorsionTree) RigidUnits(nAtoms int) []int32 {
	// Signature of an atom = the set of torsions whose effect-set
	// contains it (axis atoms excluded, matching the rotation rule).
	// Torsions are tree-ordered root-outward, so the signature of any
	// moved atom is a chain of nested effect-sets; hashing the chain
	// incrementally gives each distinct signature a distinct id.
	unit := make([]int32, nAtoms)
	type sig struct {
		parent int32 // unit id before this torsion was applied
		tor    int32
	}
	ids := map[sig]int32{}
	next := int32(1)
	for k, tor := range t.Torsions {
		for _, idx := range tor.Moved {
			if idx == tor.Axis2 {
				continue
			}
			s := sig{parent: unit[idx], tor: int32(k)}
			id, ok := ids[s]
			if !ok {
				id = next
				next++
				ids[s] = id
			}
			unit[idx] = id
		}
	}
	return unit
}
