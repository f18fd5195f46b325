package formats

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/prep"
)

// Property: every ligand of the Table 2 workload survives the full
// SciDock file flow — SDF → Mol2 → PDBQT — with coordinates, charges
// and torsion counts intact at each hop. This is the end-to-end
// parser/writer contract the workflow depends on.
func TestWorkloadLigandFileFlowProperty(t *testing.T) {
	for _, code := range data.LigandCodes {
		lig, _ := data.GenerateLigand(code)

		// SDF round trip.
		var sdf bytes.Buffer
		if err := WriteSDF(&sdf, lig); err != nil {
			t.Fatalf("%s: write sdf: %v", code, err)
		}
		fromSDF, err := ParseSDF(&sdf, code)
		if err != nil {
			t.Fatalf("%s: parse sdf: %v", code, err)
		}
		if fromSDF.NumAtoms() != lig.NumAtoms() || len(fromSDF.Bonds) != len(lig.Bonds) {
			t.Fatalf("%s: sdf round trip lost atoms/bonds", code)
		}
		for i := range lig.Atoms {
			if fromSDF.Atoms[i].Pos.Dist(lig.Atoms[i].Pos) > 5e-4 {
				t.Fatalf("%s: sdf atom %d drifted", code, i)
			}
		}

		// Babel conversion, then Mol2 round trip.
		mol2, err := prep.ConvertSDFToMol2(fromSDF)
		if err != nil {
			t.Fatalf("%s: babel: %v", code, err)
		}
		var m2 bytes.Buffer
		if err := WriteMol2(&m2, mol2); err != nil {
			t.Fatalf("%s: write mol2: %v", code, err)
		}
		fromMol2, err := ParseMol2(&m2, code)
		if err != nil {
			t.Fatalf("%s: parse mol2: %v", code, err)
		}
		if fromMol2.NumAtoms() != mol2.NumAtoms() {
			t.Fatalf("%s: mol2 round trip lost atoms", code)
		}
		for i := range mol2.Atoms {
			if math.Abs(fromMol2.Atoms[i].Charge-mol2.Atoms[i].Charge) > 5e-4 {
				t.Fatalf("%s: mol2 atom %d charge drifted", code, i)
			}
		}

		// Preparation, then PDBQT round trip.
		pl, err := prep.PrepareLigand(fromMol2)
		if err != nil {
			t.Fatalf("%s: prepare: %v", code, err)
		}
		var pq bytes.Buffer
		if err := WritePDBQTLigand(&pq, pl.Mol, pl.Tree); err != nil {
			t.Fatalf("%s: write pdbqt: %v", code, err)
		}
		fromPQ, err := ParsePDBQT(&pq, code)
		if err != nil {
			t.Fatalf("%s: parse pdbqt: %v", code, err)
		}
		if fromPQ.Mol.NumAtoms() != pl.Mol.NumAtoms() {
			t.Fatalf("%s: pdbqt round trip lost atoms (%d vs %d)",
				code, fromPQ.Mol.NumAtoms(), pl.Mol.NumAtoms())
		}
		if fromPQ.Tree.NumTorsions() != pl.Tree.NumTorsions() {
			t.Fatalf("%s: torsion count %d != %d",
				code, fromPQ.Tree.NumTorsions(), pl.Tree.NumTorsions())
		}
		// Charge conservation across the whole flow (PDBQT precision).
		if math.Abs(fromPQ.Mol.TotalCharge()-mol2.TotalCharge()) > 0.02 {
			t.Fatalf("%s: total charge drifted %v -> %v",
				code, mol2.TotalCharge(), fromPQ.Mol.TotalCharge())
		}
	}
}

// Property: every receptor of the workload survives PDB and PDBQT
// round trips.
func TestWorkloadReceptorFileFlowProperty(t *testing.T) {
	for _, code := range data.ReceptorCodes[:40] {
		rec, _ := data.GenerateReceptor(code)
		var pdb bytes.Buffer
		if err := WritePDB(&pdb, rec); err != nil {
			t.Fatalf("%s: write pdb: %v", code, err)
		}
		fromPDB, err := ParsePDB(&pdb, code)
		if err != nil {
			t.Fatalf("%s: parse pdb: %v", code, err)
		}
		if fromPDB.NumAtoms() != rec.NumAtoms() {
			t.Fatalf("%s: pdb round trip lost atoms", code)
		}
		for i := range rec.Atoms {
			if fromPDB.Atoms[i].Element != rec.Atoms[i].Element {
				t.Fatalf("%s: atom %d element %s -> %s", code, i,
					rec.Atoms[i].Element, fromPDB.Atoms[i].Element)
			}
		}
	}
}
