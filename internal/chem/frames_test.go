package chem_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/prep"
)

// oracleLigands prepares the 42 Table 2 ligands and the 35-torsion
// large ligand as docking ligands.
func oracleLigands(t *testing.T) []*dock.Ligand {
	t.Helper()
	var raws []*chem.Molecule
	for _, code := range data.LigandCodes {
		raw, _ := data.GenerateLigand(code)
		raws = append(raws, raw)
	}
	large, _ := data.GenerateLargeLigand()
	raws = append(raws, large)
	var ligs []*dock.Ligand
	for _, raw := range raws {
		mol2, err := prep.ConvertSDFToMol2(raw)
		if err != nil {
			t.Fatalf("%s: %v", raw.Name, err)
		}
		pl, err := prep.PrepareLigand(mol2)
		if err != nil {
			t.Fatalf("%s: %v", raw.Name, err)
		}
		lig, err := dock.NewLigand(pl.Mol, pl.Tree)
		if err != nil {
			t.Fatalf("%s: %v", raw.Name, err)
		}
		ligs = append(ligs, lig)
	}
	return ligs
}

// TestFrameOwnerIsRigidUnit pins the one rigid-unit partition: the
// frame dock.Ligand places each atom with has the id RigidUnits gives
// its unit, on every dataset ligand and the large ligand. Vina groups
// its intramolecular pairs by these ids, so equal ids keep its
// summation order.
func TestFrameOwnerIsRigidUnit(t *testing.T) {
	for _, lig := range oracleLigands(t) {
		want := lig.Tree.RigidUnits(lig.Mol.NumAtoms())
		got := lig.Owners()
		if len(got) != len(want) {
			t.Fatalf("%s: %d owners for %d atoms", lig.Mol.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: atom %d has frame %d, rigid unit %d", lig.Mol.Name, i, got[i], want[i])
			}
		}
	}
}

// TestFramesMatchWalk is the kinematics oracle: dock.Ligand's tree of
// frames places every atom of every dataset ligand and the large
// ligand within 1e-9 Å of the sequential walk — each torsion in tree
// order turning its Moved atoms about its current axis, then the
// pose's rotation about the about point and its translation — over
// seeded random poses, the all-zero torsion vector among them.
func TestFramesMatchWalk(t *testing.T) {
	const tol = 1e-9 // Å
	r := rand.New(rand.NewSource(44))
	box := dock.Box{Center: chem.V(3, -1, 2), Size: chem.V(30, 30, 30)}
	worst := 0.0
	var got, walk []chem.Vec3
	for _, lig := range oracleLigands(t) {
		base := lig.Mol.Positions()
		c := chem.Centroid(base)
		for i := range base {
			base[i] = base[i].Sub(c)
		}
		for trial := range 50 {
			p := dock.RandomPose(r, box, lig.NumTorsions())
			if trial == 0 {
				clear(p.Torsions)
			}
			got = lig.CoordsInto(p, got)
			walk = lig.Tree.ApplyTorsionsInto(walk, base, p.Torsions)
			chem.PlaceInto(walk, walk, p.Orientation.Normalize(), p.Translation)
			for i := range walk {
				d := got[i].Dist(walk[i])
				if !(d <= tol) {
					t.Fatalf("%s trial %d: atom %d at %v, the walk puts it at %v (%.3g Å apart)",
						lig.Mol.Name, trial, i, got[i], walk[i], d)
				}
				worst = math.Max(worst, d)
			}
		}
	}
	t.Logf("largest distance from the walk: %.3g Å", worst)
}
