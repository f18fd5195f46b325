package formats

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/chem"
)

// The PDBQT readers take bytes from outside the process (the docking
// programs' own output); the SDF, PDB, Mol2 and DLG readers are the
// test oracles of the writers' round trips. Each must answer any input
// with a value or an error, never a panic.
// Seeds are the round-trip fixtures and malformed inputs of
// formats_test.go; go test runs them, go test -fuzz explores from them.

// addWritten seeds f with what write produces.
func addWritten(f *testing.F, write func(io.Writer) error) {
	f.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

func addStrings(f *testing.F, seeds ...string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// typedLigand is testLigand with AutoDock types and its torsion tree.
func typedLigand(f *testing.F) (*chem.Molecule, *chem.TorsionTree) {
	m := testLigand()
	for i := range m.Atoms {
		m.Atoms[i].Type = chem.TypeForElement(m.Atoms[i].Element)
	}
	tree, err := chem.BuildTorsionTree(m)
	if err != nil {
		f.Fatal(err)
	}
	return m, tree
}

func FuzzSDF(f *testing.F) {
	addWritten(f, func(w io.Writer) error { return WriteSDF(w, testLigand()) })
	addStrings(f, "x\ny\n", "t\n\n\nxx\n", "t\n\n\n  5  0  0  0  0  0  0  0  0999 V2000\n")
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := ParseSDF(bytes.NewReader(b), "fuzz"); err == nil && m == nil {
			t.Fatal("nil molecule without an error")
		}
	})
}

func FuzzPDB(f *testing.F) {
	addWritten(f, func(w io.Writer) error { return WritePDB(w, testReceptor()) })
	addStrings(f,
		"HETATM    1  C1  LIG A   1       0.000   0.000   0.000  1.00  0.00           C\n"+
			"HETATM    2  O1  LIG A   1       1.400   0.000   0.000  1.00  0.00           O\n"+
			"CONECT    1    2\nEND\n",
		"ATOM      2 HG   CYX A   2       1.000   0.000   0.000\nEND\n",
		"ATOM      x  CA  CYS A   1       0.000   0.000   0.000\n")
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := ParsePDB(bytes.NewReader(b), "fuzz"); err == nil && m == nil {
			t.Fatal("nil molecule without an error")
		}
	})
}

func FuzzMol2(f *testing.F) {
	addWritten(f, func(w io.Writer) error { return WriteMol2(w, testLigand()) })
	addStrings(f,
		"@<TRIPOS>MOLECULE\nring\n 2 1 1\nSMALL\nGASTEIGER\n@<TRIPOS>ATOM\n"+
			"      1 C1  0.0 0.0 0.0 C.ar 1 LIG1 0.0\n      2 C2  1.4 0.0 0.0 C.ar 1 LIG1 0.0\n"+
			"@<TRIPOS>BOND\n     1 1 2 ar\n",
		"@<TRIPOS>ATOM\n 1 C1 x y z C.3\n")
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := ParseMol2(bytes.NewReader(b), "fuzz"); err == nil && m == nil {
			t.Fatal("nil molecule without an error")
		}
	})
}

// FuzzPDBQT drives both PDBQT readers: the single-structure one and the
// multi-model one for Vina's output poses.
func FuzzPDBQT(f *testing.F) {
	rec := testReceptor()
	for i := range rec.Atoms {
		rec.Atoms[i].Type = chem.TypeForElement(rec.Atoms[i].Element)
	}
	lig, tree := typedLigand(f)
	addWritten(f, func(w io.Writer) error { return WritePDBQTReceptor(w, rec) })
	addWritten(f, func(w io.Writer) error { return WritePDBQTLigand(w, lig, tree) })
	addWritten(f, func(w io.Writer) error {
		pos := lig.Positions()
		return WritePDBQTModels(w, lig, [][]chem.Vec3{pos, pos}, []float64{-7.1, -6.4})
	})
	addStrings(f, "ROOT\nATOM      1  C1  LIG A   1       0.000   0.000   0.000  1.00  0.00     0.000 C \nENDROOT\n"+
		"BRANCH 1 2\nATOM      2  C2  LIG A   1       1.000   0.000   0.000  1.00  0.00     0.000 C \n")
	f.Fuzz(func(t *testing.T, b []byte) {
		if l, err := ParsePDBQT(bytes.NewReader(b), "fuzz"); err == nil && (l == nil || l.Mol == nil || l.Tree == nil) {
			t.Fatal("incomplete ligand without an error")
		}
		if m, poses, err := ParsePDBQTModels(bytes.NewReader(b), "fuzz"); err == nil {
			for _, p := range poses {
				if m == nil || len(p) != len(m.Atoms) {
					t.Fatal("pose does not match the molecule's atoms")
				}
			}
		}
	})
}

func FuzzDLG(f *testing.F) {
	lig, _ := typedLigand(f)
	addWritten(f, func(w io.Writer) error {
		return WriteDLG(w, &DLG{
			Program: "AutoDock 4.2.5.1", Receptor: "2HHN", Ligand: "0E6", Seed: 9,
			Runs:   []DLGRun{{Run: 1, FEB: -7.1, RMSD: 50.0, ClusterN: 4}, {Run: 2, FEB: -6.8, RMSD: 48.7, ClusterN: 1}},
			Docked: lig,
		})
	})
	addStrings(f, "no banner\n", "DOCKED: PROGRAM x\nRESULT 1 a b 1\n")
	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := ParseDLG(bytes.NewReader(b), "fuzz"); err == nil {
			d.Best()
		}
	})
}
