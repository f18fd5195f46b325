package dock

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
)

// samePlacement fails unless CoordsFrom placed p exactly where
// CoordsInto does, bit for bit.
func samePlacement(t *testing.T, lig *Ligand, label string, got *Placement, p Pose) {
	t.Helper()
	want := lig.Coords(p)
	if len(got.Coords) != len(want) {
		t.Fatalf("%s %s: %d coordinates, CoordsInto %d", lig.Mol.Name, label, len(got.Coords), len(want))
	}
	for i, w := range want {
		g := got.Coords[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) {
			t.Fatalf("%s %s: atom %d at %v, CoordsInto %v", lig.Mol.Name, label, i, g, w)
		}
	}
}

// fullRotations is the number of per-atom rotations a full walk of p
// applies.
func fullRotations(lig *Ligand, p Pose) int {
	var frame []chem.Vec3
	_, n := lig.Tree.ApplyTorsionsRecord(frame, lig.base, p.Torsions, nil)
	return n
}

// TestCoordsFromMatchesCoordsInto pins the replay's contract: a pose
// placed from another's placement has CoordsInto's coordinates to the
// last bit, whatever it changed — every single torsion, angles set to
// exactly 0 on either side, two torsions at once, translation or
// orientation alone, a translation the box clamps back — over every
// dataset ligand and the large one, from random incumbents, and along a
// walk that keeps placing from the last accepted probe. A single-torsion
// replay applies no more rotations than a full walk, and, with every
// angle non-zero, fewer on average.
func TestCoordsFromMatchesCoordsInto(t *testing.T) {
	ligands := []*Ligand{largeLigand(t)}
	for _, code := range data.LigandCodes {
		ligands = append(ligands, testLigand(t, code))
	}
	box := Box{Center: chem.V(1, -2, 3), Size: chem.V(20, 20, 20)}
	r := rand.New(rand.NewSource(37))
	for _, lig := range ligands {
		if lig.lineage == nil {
			t.Fatalf("%s: no lineage for a prepared tree", lig.Mol.Name)
		}
		nt := lig.NumTorsions()
		var inc, prb Placement
		for round := 0; round < 3; round++ {
			base := RandomPose(r, box, nt)
			if round == 1 {
				for k := 0; k < nt; k += 3 {
					base.Torsions[k] = 0 // zero angles on the incumbent's side
				}
			}
			lig.CoordsFrom(&inc, base, nil)
			samePlacement(t, lig, "full placement", &inc, base)
			probe := base.Clone()
			try := func(label string) int {
				t.Helper()
				n := lig.CoordsFrom(&prb, probe, &inc)
				samePlacement(t, lig, label, &prb, probe)
				probe.Set(base)
				return n
			}
			replayed, walked := 0, 0
			for k := 0; k < nt; k++ {
				probe.Torsions[k] += 0.5
				full := fullRotations(lig, probe)
				n := try("torsion turned")
				if n > full {
					t.Fatalf("%s torsion %d: replay applied %d rotations, a full walk %d", lig.Mol.Name, k, n, full)
				}
				replayed, walked = replayed+n, walked+full
				probe.Torsions[k] = 0
				try("torsion set to 0")
				probe.Torsions[k] = math.Copysign(0, -1)
				try("torsion set to -0")
				probe.Torsions[k] += 0.25
				probe.Torsions[(k+1)%nt] -= 0.25
				try("two torsions changed")
				probe.Torsions[k] -= 0.125
				probe.Translation.Y += 0.5
				try("torsion and translation changed")
			}
			if nt > 1 && round != 1 && replayed >= walked {
				t.Fatalf("%s: single-torsion replays applied %d rotations, full walks %d", lig.Mol.Name, replayed, walked)
			}
			probe.Translation.X += 0.5
			if n := try("translation only"); n != 0 {
				t.Fatalf("%s: a translation probe applied %d torsion rotations", lig.Mol.Name, n)
			}
			probe.Orientation = chem.AxisAngleQuat(chem.V(1, 2, 3), 0.3).Mul(probe.Orientation).Normalize()
			try("orientation only")
			try("nothing changed")

			// A translation the box clamps back onto the incumbent's.
			edge := base.Clone()
			edge.Translation.Z = box.Center.Z + 50
			ClampToBox(&edge, box)
			lig.CoordsFrom(&inc, edge, nil)
			base.Set(edge)
			probe.Set(edge)
			probe.Translation.Z += 1
			ClampToBox(&probe, box)
			if !sameRigid(probe, edge) {
				t.Fatal("fixture: the clamp did not return the incumbent's translation")
			}
			try("clamped translation")

			// A walk: each probe changes one gene and, every other time,
			// becomes the incumbent the next is placed from.
			for step := 0; step < 4*nt+8; step++ {
				switch g := r.Intn(nt + 2); {
				case g < nt:
					probe.Torsions[g] += r.NormFloat64()
					if r.Intn(4) == 0 {
						probe.Torsions[g] = 0
					}
				case g == nt:
					probe.Translation.X += r.NormFloat64()
				default:
					probe.Orientation = chem.AxisAngleQuat(chem.V(r.NormFloat64(), 1, 0), r.NormFloat64()).Mul(probe.Orientation).Normalize()
				}
				lig.CoordsFrom(&prb, probe, &inc)
				samePlacement(t, lig, "walk", &prb, probe)
				if step%2 == 0 {
					inc, prb = prb, inc
					base.Set(probe)
				} else {
					probe.Set(base)
				}
			}
		}
	}
}

// TestCoordsFromUnorderedTreeWalksInFull: a tree whose torsion order is
// reversed breaks the ordering rule, gets no lineage, and places every
// pose with the full walk — still CoordsInto's coordinates, bit for bit.
func TestCoordsFromUnorderedTreeWalksInFull(t *testing.T) {
	prepared := largeLigand(t)
	tree := &chem.TorsionTree{Root: prepared.Tree.Root, Torsions: slices.Clone(prepared.Tree.Torsions)}
	slices.Reverse(tree.Torsions)
	lig, err := NewLigand(prepared.Mol, tree)
	if err != nil {
		t.Fatal(err)
	}
	if lig.lineage != nil {
		t.Fatal("a reversed tree got a lineage")
	}
	r := rand.New(rand.NewSource(41))
	base := RandomPose(r, Box{Size: chem.V(20, 20, 20)}, lig.NumTorsions())
	var inc, prb Placement
	lig.CoordsFrom(&inc, base, nil)
	full := fullRotations(lig, base)
	probe := base.Clone()
	for k := range probe.Torsions {
		probe.Torsions[k] += 0.5
		if n := lig.CoordsFrom(&prb, probe, &inc); n != full {
			t.Fatalf("torsion %d: %d rotations, the full walk's %d", k, n, full)
		}
		samePlacement(t, lig, "reversed tree", &prb, probe)
		probe.Set(base)
	}
}
