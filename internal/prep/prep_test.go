package prep

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
)

func TestGasteigerChargesNeutralSum(t *testing.T) {
	m, _ := data.GenerateLigand("0E6")
	AssignGasteigerCharges(m)
	if got := m.TotalCharge(); math.Abs(got) > 0.05 {
		t.Errorf("total charge = %v, want ~0", got)
	}
	// Oxygen more negative than its carbon neighbours.
	adj := m.Adjacency()
	for i, a := range m.Atoms {
		if a.Element != chem.Oxygen {
			continue
		}
		for _, j := range adj[i] {
			if m.Atoms[j].Element == chem.Carbon && m.Atoms[j].Charge < a.Charge {
				t.Errorf("O atom %d (%.3f) not more negative than bonded C %d (%.3f)",
					i, a.Charge, j, m.Atoms[j].Charge)
			}
		}
	}
}

func TestGasteigerDeterministic(t *testing.T) {
	a, _ := data.GenerateLigand("042")
	b, _ := data.GenerateLigand("042")
	AssignGasteigerCharges(a)
	AssignGasteigerCharges(b)
	for i := range a.Atoms {
		if a.Atoms[i].Charge != b.Atoms[i].Charge {
			t.Fatalf("charge %d differs", i)
		}
	}
}

func TestConvertSDFToMol2(t *testing.T) {
	lig, _ := data.GenerateLigand("074")
	out, err := ConvertSDFToMol2(lig)
	if err != nil {
		t.Fatal(err)
	}
	if out == lig {
		t.Error("babel must not mutate its input")
	}
	charged := 0
	for _, a := range out.Atoms {
		if a.Charge != 0 {
			charged++
		}
	}
	if charged == 0 {
		t.Error("no charges assigned")
	}
	// Input without bonds gets them perceived.
	bare := lig.Clone()
	bare.Bonds = nil
	out2, err := ConvertSDFToMol2(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Bonds) == 0 {
		t.Error("bond perception did not run")
	}
	if _, err := ConvertSDFToMol2(&chem.Molecule{Name: "E"}); err == nil {
		t.Error("empty ligand accepted")
	}
}

func TestPrepareLigand(t *testing.T) {
	lig, _ := data.GenerateLigand("0D6")
	mol2, err := ConvertSDFToMol2(lig)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PrepareLigand(mol2)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range pl.Mol.Atoms {
		if a.Type == "" {
			t.Errorf("atom %d has no type", i)
		}
		if a.Element == chem.Hydrogen && a.Type != chem.TypeHD {
			t.Errorf("hydrogen atom %d typed %s, want HD", i, a.Type)
		}
		if a.Element == chem.Oxygen && a.Type != chem.TypeOA {
			t.Errorf("oxygen atom %d typed %s, want OA", i, a.Type)
		}
	}
	// Every remaining hydrogen is bonded to a heteroatom.
	adj := pl.Mol.Adjacency()
	for i, a := range pl.Mol.Atoms {
		if a.Element != chem.Hydrogen {
			continue
		}
		for _, j := range adj[i] {
			if pl.Mol.Atoms[j].Element == chem.Carbon {
				t.Errorf("non-polar hydrogen %d survived the merge", i)
			}
		}
	}
	if pl.Tree == nil {
		t.Fatal("no torsion tree")
	}
}

func TestMergeNonPolarHydrogensConservesCharge(t *testing.T) {
	m := &chem.Molecule{Name: "CH"}
	m.Atoms = []chem.Atom{
		{Name: "C1", Element: chem.Carbon, Pos: chem.V(0, 0, 0), Charge: 0.1},
		{Name: "H1", Element: chem.Hydrogen, Pos: chem.V(1, 0, 0), Charge: 0.05},
		{Name: "O1", Element: chem.Oxygen, Pos: chem.V(-1.4, 0, 0), Charge: -0.3},
		{Name: "H2", Element: chem.Hydrogen, Pos: chem.V(-2, 0.8, 0), Charge: 0.15},
	}
	m.Bonds = []chem.Bond{
		{A: 0, B: 1, Order: chem.Single},
		{A: 0, B: 2, Order: chem.Single},
		{A: 2, B: 3, Order: chem.Single},
	}
	before := m.TotalCharge()
	out := mergeNonPolarHydrogens(m)
	if out.NumAtoms() != 3 {
		t.Fatalf("atoms after merge = %d, want 3", out.NumAtoms())
	}
	if math.Abs(out.TotalCharge()-before) > 1e-9 {
		t.Errorf("charge not conserved: %v -> %v", before, out.TotalCharge())
	}
	// Polar hydrogen H2 survives.
	foundPolarH := false
	for _, a := range out.Atoms {
		if a.Element == chem.Hydrogen {
			foundPolarH = true
		}
	}
	if !foundPolarH {
		t.Error("polar hydrogen was merged")
	}
	if len(out.Bonds) != 2 {
		t.Errorf("bonds after merge = %d, want 2", len(out.Bonds))
	}
}

func TestPrepareReceptor(t *testing.T) {
	rec, _ := data.GenerateReceptor("1AEC")
	if data.ReceptorMeta("1AEC").ContainsHg {
		t.Skip("1AEC drew the Hg flag; covered elsewhere")
	}
	out, err := PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range out.Atoms {
		if a.Type == "" {
			t.Errorf("receptor atom %d untyped", i)
		}
	}
	if out == rec {
		t.Error("preparation must not mutate input")
	}
}

func TestPrepareReceptorRejectsHg(t *testing.T) {
	var hgCode string
	for _, code := range data.ReceptorCodes {
		if data.ReceptorMeta(code).ContainsHg {
			hgCode = code
			break
		}
	}
	if hgCode == "" {
		t.Fatal("dataset has no Hg receptor")
	}
	rec, _ := data.GenerateReceptor(hgCode)
	_, err := PrepareReceptor(rec)
	if !errors.Is(err, ErrUnsupportedAtom) {
		t.Errorf("Hg receptor %s: err = %v, want ErrUnsupportedAtom", hgCode, err)
	}
}

func TestFilterDocking(t *testing.T) {
	small := data.ReceptorInfo{Class: data.SmallReceptor}
	large := data.ReceptorInfo{Class: data.LargeReceptor}
	if FilterDocking(small) != ProgramAD4 {
		t.Error("small receptor should go to AD4")
	}
	if FilterDocking(large) != ProgramVina {
		t.Error("large receptor should go to Vina")
	}
}

// testGPF is a grid parameter file for 0E6 as runGPF builds one: the
// prepared ligand's types and a fixed grid.
func testGPF(t testing.TB) GPF {
	t.Helper()
	lig, _ := data.GenerateLigand("0E6")
	mol2, err := ConvertSDFToMol2(lig)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PrepareLigand(mol2)
	if err != nil {
		t.Fatal(err)
	}
	return GPF{
		Receptor: "2HHN.pdbqt",
		Ligand:   "0E6.pdbqt",
		Types:    pl.Mol.AtomTypes(),
		NPts:     [3]int{60, 60, 60},
		Spacing:  0.375,
		Center:   chem.V(1.5, -2.25, 3),
	}
}

func TestGPFRoundTrip(t *testing.T) {
	g := testGPF(t)
	var buf bytes.Buffer
	if err := WriteGPF(&buf, &g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseGPF(&buf, "t.gpf")
	if err != nil {
		t.Fatal(err)
	}
	if got.NPts != g.NPts || got.Receptor != g.Receptor || len(got.Types) != len(g.Types) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, g)
	}
	if got.Center.Dist(g.Center) > 1e-2 {
		t.Errorf("center drift")
	}
}

func TestGPFParseErrors(t *testing.T) {
	if _, err := ParseGPF(bytes.NewReader([]byte("npts 2 2\n")), "t"); err == nil {
		t.Error("short npts accepted")
	}
	if _, err := ParseGPF(bytes.NewReader([]byte("spacing x\nnpts 2 2 2\nreceptor r\n")), "t"); err == nil {
		t.Error("bad spacing accepted")
	}
	if _, err := ParseGPF(bytes.NewReader([]byte("")), "t"); err == nil {
		t.Error("empty gpf accepted")
	}
}

func TestDPFRoundTrip(t *testing.T) {
	d := DefaultDPF("0E6.pdbqt", "2HHN.maps.fld", 99)
	var buf bytes.Buffer
	if err := WriteDPF(&buf, &d); err != nil {
		t.Fatal(err)
	}
	got, err := ParseDPF(&buf, "t.dpf")
	if err != nil {
		t.Fatal(err)
	}
	if *got != d {
		t.Errorf("round trip: %+v vs %+v", *got, d)
	}
}

func TestDPFParseErrors(t *testing.T) {
	if _, err := ParseDPF(bytes.NewReader([]byte("ga_pop_size x\n")), "t"); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := ParseDPF(bytes.NewReader([]byte("seed 1\n")), "t"); err == nil {
		t.Error("missing move/ga_run accepted")
	}
}

func TestVinaConfigRoundTrip(t *testing.T) {
	g := testGPF(t)
	c := DefaultVinaConfig(&g, "0E6.pdbqt", 7)
	var buf bytes.Buffer
	if err := WriteVinaConfig(&buf, &c); err != nil {
		t.Fatal(err)
	}
	got, err := ParseVinaConfig(&buf, "t.conf")
	if err != nil {
		t.Fatal(err)
	}
	if got.Receptor != c.Receptor || got.Ligand != c.Ligand ||
		got.Exhaustiveness != c.Exhaustiveness || got.Seed != 7 {
		t.Errorf("round trip: %+v vs %+v", got, c)
	}
	if got.Size.Dist(c.Size) > 1e-2 || got.Center.Dist(c.Center) > 1e-2 {
		t.Errorf("box drift")
	}
	// Box covers the whole grid.
	if c.Size.X < float64(g.NPts[0])*g.Spacing-1e-9 {
		t.Errorf("box smaller than grid")
	}
}

func TestVinaConfigErrors(t *testing.T) {
	if _, err := ParseVinaConfig(bytes.NewReader([]byte("center_x = nope\nreceptor = r\nligand = l\n")), "t"); err == nil {
		t.Error("bad float accepted")
	}
	if _, err := ParseVinaConfig(bytes.NewReader([]byte("center_x = 1\n")), "t"); err == nil {
		t.Error("missing receptor/ligand accepted")
	}
}
