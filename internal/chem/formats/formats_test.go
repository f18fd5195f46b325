package formats

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/chem"
)

func testLigand() *chem.Molecule {
	m := &chem.Molecule{Name: "LIG"}
	m.Atoms = []chem.Atom{
		{Serial: 1, Name: "C1", Element: chem.Carbon, Pos: chem.V(0, 1, 0), Charge: 0.05, HetAtm: true},
		{Serial: 2, Name: "C2", Element: chem.Carbon, Pos: chem.V(0, 0, 0), Charge: -0.01, HetAtm: true},
		{Serial: 3, Name: "N1", Element: chem.Nitrogen, Pos: chem.V(1.4, 0, 0), Charge: -0.35, HetAtm: true},
		{Serial: 4, Name: "C3", Element: chem.Carbon, Pos: chem.V(2.2, 1.1, 0), Charge: 0.12, HetAtm: true},
		{Serial: 5, Name: "O1", Element: chem.Oxygen, Pos: chem.V(3.5, 1.0, 0.4), Charge: -0.42, HetAtm: true},
	}
	m.Bonds = []chem.Bond{
		{A: 0, B: 1, Order: chem.Single},
		{A: 1, B: 2, Order: chem.Single},
		{A: 2, B: 3, Order: chem.Single},
		{A: 3, B: 4, Order: chem.Single},
	}
	return m
}

func testReceptor() *chem.Molecule {
	m := &chem.Molecule{Name: "1ABC"}
	m.Atoms = []chem.Atom{
		{Serial: 1, Name: "N", Element: chem.Nitrogen, Residue: "CYS", ResSeq: 1, Chain: "A", Pos: chem.V(0, 0, 0)},
		{Serial: 2, Name: "CA", Element: chem.Carbon, Residue: "CYS", ResSeq: 1, Chain: "A", Pos: chem.V(1.5, 0, 0)},
		{Serial: 3, Name: "SG", Element: chem.Sulfur, Residue: "CYS", ResSeq: 1, Chain: "A", Pos: chem.V(2.2, 1.6, 0.3)},
		{Serial: 4, Name: "O", Element: chem.Oxygen, Residue: "GLY", ResSeq: 2, Chain: "A", Pos: chem.V(-1.2, 0.8, 2.0)},
	}
	return m
}

func TestPDBRoundTrip(t *testing.T) {
	m := testReceptor()
	var buf bytes.Buffer
	if err := WritePDB(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePDB(&buf, "1ABC")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atoms %d != %d", got.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		w, g := m.Atoms[i], got.Atoms[i]
		if g.Name != w.Name || g.Element != w.Element || g.Residue != w.Residue ||
			g.ResSeq != w.ResSeq || g.Chain != w.Chain {
			t.Errorf("atom %d metadata mismatch: %+v vs %+v", i, g, w)
		}
		if g.Pos.Dist(w.Pos) > 1e-3 {
			t.Errorf("atom %d moved: %v vs %v", i, g.Pos, w.Pos)
		}
	}
}

func TestPDBConect(t *testing.T) {
	pdb := `HEADER    test
HETATM    1  C1  LIG A   1       0.000   0.000   0.000  1.00  0.00           C
HETATM    2  O1  LIG A   1       1.400   0.000   0.000  1.00  0.00           O
CONECT    1    2
END
`
	m, err := ParsePDB(strings.NewReader(pdb), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Bonds) != 1 || m.Bonds[0].A != 0 || m.Bonds[0].B != 1 {
		t.Errorf("bonds = %+v", m.Bonds)
	}
	if !m.Atoms[0].HetAtm {
		t.Error("HETATM flag lost")
	}
}

func TestPDBElementFromName(t *testing.T) {
	// No element columns: derive from atom name.
	pdb := "ATOM      1  CA  CYS A   1       0.000   0.000   0.000\n" +
		"ATOM      2 HG   CYX A   2       1.000   0.000   0.000\nEND\n"
	m, err := ParsePDB(strings.NewReader(pdb), "t")
	if err != nil {
		t.Fatal(err)
	}
	if m.Atoms[0].Element != chem.Carbon {
		t.Errorf("CA element = %s, want C", m.Atoms[0].Element)
	}
	// "HG " flush-left two-letter name resolves to mercury.
	if m.Atoms[1].Element != chem.Mercury {
		t.Errorf("HG element = %s, want Hg", m.Atoms[1].Element)
	}
}

func TestPDBErrors(t *testing.T) {
	if _, err := ParsePDB(strings.NewReader("HEADER x\nEND\n"), "t"); err == nil {
		t.Error("empty pdb accepted")
	}
	bad := "ATOM      x  CA  CYS A   1       0.000   0.000   0.000\n"
	if _, err := ParsePDB(strings.NewReader(bad), "t"); err == nil {
		t.Error("bad serial accepted")
	}
	badCoord := "ATOM      1  CA  CYS A   1       a.aaa   0.000   0.000\n"
	if _, err := ParsePDB(strings.NewReader(badCoord), "t"); err == nil {
		t.Error("bad coordinate accepted")
	}
}

func TestSDFRoundTrip(t *testing.T) {
	m := testLigand()
	var buf bytes.Buffer
	if err := WriteSDF(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSDF(&buf, "LIG")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != m.NumAtoms() || len(got.Bonds) != len(m.Bonds) {
		t.Fatalf("atoms/bonds %d/%d != %d/%d",
			got.NumAtoms(), len(got.Bonds), m.NumAtoms(), len(m.Bonds))
	}
	for i := range m.Atoms {
		if got.Atoms[i].Element != m.Atoms[i].Element {
			t.Errorf("atom %d element %s != %s", i, got.Atoms[i].Element, m.Atoms[i].Element)
		}
		if got.Atoms[i].Pos.Dist(m.Atoms[i].Pos) > 1e-3 {
			t.Errorf("atom %d pos drift", i)
		}
	}
	for i := range m.Bonds {
		if got.Bonds[i] != m.Bonds[i] {
			t.Errorf("bond %d: %+v != %+v", i, got.Bonds[i], m.Bonds[i])
		}
	}
}

func TestSDFErrors(t *testing.T) {
	cases := map[string]string{
		"truncated header": "x\ny\n",
		"bad counts":       "t\n\n\nxx\n",
		"missing atoms":    "t\n\n\n  5  0  0  0  0  0  0  0  0999 V2000\n",
		"bond out of range": "t\n\n\n  1  1  0\n" +
			"    0.0000    0.0000    0.0000 C   0\n" +
			"  1  9  1  0\nM  END\n$$$$\n",
	}
	for name, data := range cases {
		if _, err := ParseSDF(strings.NewReader(data), "t"); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMol2RoundTrip(t *testing.T) {
	m := testLigand()
	var buf bytes.Buffer
	if err := WriteMol2(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMol2(&buf, "LIG")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumAtoms() != m.NumAtoms() || len(got.Bonds) != len(m.Bonds) {
		t.Fatalf("sizes differ")
	}
	for i := range m.Atoms {
		if got.Atoms[i].Element != m.Atoms[i].Element {
			t.Errorf("atom %d element", i)
		}
		if math.Abs(got.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-3 {
			t.Errorf("atom %d charge %v != %v", i, got.Atoms[i].Charge, m.Atoms[i].Charge)
		}
	}
}

func TestMol2AromaticBond(t *testing.T) {
	mol2 := `@<TRIPOS>MOLECULE
ring
 2 1 1
SMALL
GASTEIGER
@<TRIPOS>ATOM
      1 C1  0.0 0.0 0.0 C.ar 1 LIG1 0.0
      2 C2  1.4 0.0 0.0 C.ar 1 LIG1 0.0
@<TRIPOS>BOND
     1 1 2 ar
`
	m, err := ParseMol2(strings.NewReader(mol2), "ring")
	if err != nil {
		t.Fatal(err)
	}
	if m.Bonds[0].Order != chem.Aromatic {
		t.Errorf("order = %v, want aromatic", m.Bonds[0].Order)
	}
	if m.Atoms[0].Element != chem.Carbon {
		t.Errorf("element = %s", m.Atoms[0].Element)
	}
}

func TestMol2Errors(t *testing.T) {
	if _, err := ParseMol2(strings.NewReader("@<TRIPOS>MOLECULE\nx\n"), "t"); err == nil {
		t.Error("no atoms accepted")
	}
	bad := "@<TRIPOS>ATOM\n 1 C1 x y z C.3\n"
	if _, err := ParseMol2(strings.NewReader(bad), "t"); err == nil {
		t.Error("bad coords accepted")
	}
}

func TestPDBQTReceptorRoundTrip(t *testing.T) {
	m := testReceptor()
	for i := range m.Atoms {
		m.Atoms[i].Type = chem.TypeForElement(m.Atoms[i].Element)
		m.Atoms[i].Charge = -0.1 * float64(i)
	}
	var buf bytes.Buffer
	if err := WritePDBQTReceptor(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePDBQT(&buf, "1ABC")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.NumTorsions() != 0 {
		t.Errorf("receptor has %d torsions", got.Tree.NumTorsions())
	}
	if got.Mol.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atom count")
	}
	for i := range m.Atoms {
		if got.Mol.Atoms[i].Type != m.Atoms[i].Type {
			t.Errorf("atom %d type %s != %s", i, got.Mol.Atoms[i].Type, m.Atoms[i].Type)
		}
		if math.Abs(got.Mol.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-2 {
			t.Errorf("atom %d charge", i)
		}
	}
}

func TestPDBQTLigandRoundTrip(t *testing.T) {
	m := testLigand()
	for i := range m.Atoms {
		m.Atoms[i].Type = chem.TypeForElement(m.Atoms[i].Element)
	}
	tree, err := chem.BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumTorsions() == 0 {
		t.Fatal("test ligand should have torsions")
	}
	var buf bytes.Buffer
	if err := WritePDBQTLigand(&buf, m, tree); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "ROOT") || !strings.Contains(text, "TORSDOF") {
		t.Fatalf("missing structure records:\n%s", text)
	}
	got, err := ParsePDBQT(strings.NewReader(text), "LIG")
	if err != nil {
		t.Fatal(err)
	}
	if got.Mol.NumAtoms() != m.NumAtoms() {
		t.Errorf("atoms %d != %d", got.Mol.NumAtoms(), m.NumAtoms())
	}
	if got.Tree.NumTorsions() != tree.NumTorsions() {
		t.Errorf("torsions %d != %d", got.Tree.NumTorsions(), tree.NumTorsions())
	}
	// Moved sets must be applicable: the parsed tree meets the ordering
	// rule docking needs, and turning each parsed torsion by 0.5 rad
	// about its axis moves its branch (finite, non-zero RMSD).
	if err := got.Tree.CheckOrder(); err != nil {
		t.Errorf("parsed tree: %v", err)
	}
	base := got.Mol.Positions()
	for k, tor := range got.Tree.Torsions {
		rot := slices.Clone(base)
		a, b := base[tor.Axis1], base[tor.Axis2]
		q := chem.AxisAngleQuat(b.Sub(a), 0.5)
		for _, i := range tor.Moved {
			rot[i] = q.Rotate(base[i].Sub(b)).Add(b)
		}
		r, err := chem.RMSD(base, rot)
		if err != nil || math.IsNaN(r) || r == 0 {
			t.Errorf("parsed torsion %d not applicable: rmsd=%v err=%v", k, r, err)
		}
	}
}

func TestPDBQTErrors(t *testing.T) {
	if _, err := ParsePDBQT(strings.NewReader("REMARK x\n"), "t"); err == nil {
		t.Error("empty pdbqt accepted")
	}
	unclosed := "ROOT\nATOM      1  C1  LIG A   1       0.000   0.000   0.000  1.00  0.00     0.000 C \nENDROOT\nBRANCH 1 2\nATOM      2  C2  LIG A   1       1.000   0.000   0.000  1.00  0.00     0.000 C \n"
	if _, err := ParsePDBQT(strings.NewReader(unclosed), "t"); err == nil {
		t.Error("unclosed BRANCH accepted")
	}
	mismatch := "ATOM      1  C1  LIG A   1       0.000   0.000   0.000  1.00  0.00     0.000 C \nTORSDOF 3\n"
	if _, err := ParsePDBQT(strings.NewReader(mismatch), "t"); err == nil {
		t.Error("TORSDOF mismatch accepted")
	}
}

func TestDLGRoundTrip(t *testing.T) {
	d := &DLG{
		Program:  "AutoDock 4.2.5.1",
		Receptor: "2HHN",
		Ligand:   "0E6",
		Seed:     42,
		Runs: []DLGRun{
			{Run: 1, FEB: -7.2, RMSD: 53.1, ClusterN: 3},
			{Run: 2, FEB: -6.8, RMSD: 48.7, ClusterN: 1},
			{Run: 3, FEB: -7.9, RMSD: 51.0, ClusterN: 5},
		},
	}
	var buf bytes.Buffer
	if err := WriteDLG(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDLG(&buf, "2HHN_0E6.dlg")
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != d.Program || got.Receptor != d.Receptor || got.Ligand != d.Ligand || got.Seed != 42 {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Runs) != 3 {
		t.Fatalf("runs = %d", len(got.Runs))
	}
	best, ok := got.Best()
	if !ok || best.Run != 3 || math.Abs(best.FEB+7.9) > 1e-6 {
		t.Errorf("best = %+v", best)
	}
}

func TestDLGEmpty(t *testing.T) {
	d := &DLG{Program: "AutoDock Vina 1.1.2", Receptor: "X", Ligand: "Y"}
	if _, ok := d.Best(); ok {
		t.Error("empty DLG should have no best")
	}
	var buf bytes.Buffer
	if err := WriteDLG(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDLG(&buf, "x.dlg")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 0 {
		t.Errorf("runs = %d", len(got.Runs))
	}
}

func TestDLGErrors(t *testing.T) {
	if _, err := ParseDLG(strings.NewReader("no banner\n"), "t"); err == nil {
		t.Error("missing banner accepted")
	}
	bad := "DOCKED: PROGRAM x\nRESULT 1 a b 1\n"
	if _, err := ParseDLG(strings.NewReader(bad), "t"); err == nil {
		t.Error("bad RESULT accepted")
	}
}

func TestDLGDockedCoordinates(t *testing.T) {
	m := testLigand()
	for i := range m.Atoms {
		m.Atoms[i].Type = chem.TypeForElement(m.Atoms[i].Element)
	}
	d := &DLG{
		Program: "AutoDock 4.2.5.1", Receptor: "2HHN", Ligand: "0E6", Seed: 9,
		Runs:   []DLGRun{{Run: 1, FEB: -7.1, RMSD: 50.0, ClusterN: 4}},
		Docked: m,
	}
	var buf bytes.Buffer
	if err := WriteDLG(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DOCKED: MODEL") ||
		!strings.Contains(buf.String(), "DOCKED: ENDMDL") {
		t.Fatalf("docked block missing:\n%s", buf.String())
	}
	got, err := ParseDLG(&buf, "x.dlg")
	if err != nil {
		t.Fatal(err)
	}
	if got.Docked == nil {
		t.Fatal("docked pose not parsed")
	}
	if got.Docked.NumAtoms() != m.NumAtoms() {
		t.Fatalf("docked atoms = %d, want %d", got.Docked.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		if got.Docked.Atoms[i].Pos.Dist(m.Atoms[i].Pos) > 1e-3 {
			t.Errorf("docked atom %d drifted", i)
		}
		if got.Docked.Atoms[i].Type != m.Atoms[i].Type {
			t.Errorf("docked atom %d type %s != %s", i,
				got.Docked.Atoms[i].Type, m.Atoms[i].Type)
		}
	}
}
