package vina

import (
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/tables"
	"repro/internal/prep"
)

func setupPair(t testing.TB, recCode, ligCode string) (*chem.Molecule, *dock.Ligand) {
	t.Helper()
	var rec, raw *chem.Molecule
	if recCode == data.LargeReceptorCode {
		rec, _ = data.GenerateLargeReceptor()
	} else {
		rec, _ = data.GenerateReceptor(recCode)
	}
	if ligCode == data.LargeLigandCode {
		raw, _ = data.GenerateLargeLigand()
	} else {
		raw, _ = data.GenerateLigand(ligCode)
	}
	prec, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	mol2, err := prep.ConvertSDFToMol2(raw)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prep.PrepareLigand(mol2)
	if err != nil {
		t.Fatal(err)
	}
	lig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		t.Fatal(err)
	}
	return prec, lig
}

func testConfig(seed int64) prep.VinaConfig {
	return prep.VinaConfig{
		Receptor: "r.pdbqt", Ligand: "l.pdbqt",
		Center: chem.Vec3{}, Size: chem.V(26, 26, 26),
		Exhaustiveness: 3, NumModes: 9, Seed: seed,
	}
}

func TestNewScorerValidation(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	if _, err := NewScorer(rec, lig); err != nil {
		t.Fatal(err)
	}
	if _, err := NewScorer(&chem.Molecule{Name: "E"}, lig); err == nil {
		t.Error("empty receptor accepted")
	}
	untyped := lig.Mol.Clone()
	untyped.Atoms[0].Type = ""
	tree, _ := chem.BuildTorsionTree(untyped)
	uLig, _ := dock.NewLigand(untyped, tree)
	if _, err := NewScorer(rec, uLig); err == nil {
		t.Error("untyped ligand accepted")
	}
}

func TestScoreShape(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	pocket := dock.Pose{Translation: chem.Vec3{}, Orientation: chem.QuatIdentity,
		Torsions: make([]float64, lig.NumTorsions())}
	in := s.Score(lig.Coords(pocket))
	if math.IsNaN(in) || math.IsInf(in, 0) {
		t.Fatalf("score = %v", in)
	}
	// Far away: no interactions, score ~intra only (near 0 for the
	// relaxed input conformation).
	far := pocket.Clone()
	far.Translation = chem.V(1e3, 0, 0)
	out := s.Score(lig.Coords(far))
	if math.Abs(out) > 5 {
		t.Errorf("isolated ligand score = %v, want near 0", out)
	}
	// Ligand jammed into the receptor wall is repulsive.
	wall := pocket.Clone()
	wall.Translation = chem.V(0, 0, -12) // inside the shell atoms
	w := s.Score(lig.Coords(wall))
	if w <= in {
		t.Errorf("wall pose %v not worse than pocket pose %v", w, in)
	}
}

func TestPairTermProperties(t *testing.T) {
	c := chem.TypeC.Params()
	oa := chem.TypeOA.Params()
	n := chem.TypeN.Params()
	// Deep clash is strongly positive.
	if e := tables.VinaPair(c, c, 1.0); e <= 0 {
		t.Errorf("clash energy = %v", e)
	}
	// Contact distance for a hydrophobic pair is favourable.
	contact := c.Rii/2 + c.Rii/2
	if e := tables.VinaPair(c, c, contact+0.2); e >= 0 {
		t.Errorf("contact energy = %v, want negative", e)
	}
	// H-bond pair at contact is much more favourable than C-C.
	hb := tables.VinaPair(n, oa, n.Rii/2+oa.Rii/2-0.5)
	cc := tables.VinaPair(c, c, contact-0.5)
	if hb >= cc {
		t.Errorf("hbond %v not stronger than hydrophobic %v", hb, cc)
	}
	// Beyond cutoff-ish distances the terms decay to ~0.
	if e := tables.VinaPair(c, c, 7.9); math.Abs(e) > 0.01 {
		t.Errorf("long-range term = %v", e)
	}
}

func TestRotatableBondPenaltyCompresses(t *testing.T) {
	// Same interaction energy, more torsions → weaker reported
	// affinity (Vina's 1/(1+w·Nrot)).
	rec, lig := setupPair(t, "1HUC", "0D6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	if lig.NumTorsions() > 0 && s.rotFactor <= 1 {
		t.Errorf("rotFactor = %v", s.rotFactor)
	}
}

func TestDockProducesModes(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Config: testConfig(42), StepsPerRestart: 10}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no modes")
	}
	if res.Program != ProgramName {
		t.Errorf("program = %s", res.Program)
	}
	if res.Receptor != "2HHN" {
		t.Errorf("receptor = %s", res.Receptor)
	}
	// Vina convention: mode 1 RMSD 0, modes sorted by FEB.
	if res.Runs[0].RMSD != 0 {
		t.Errorf("mode 1 rmsd = %v", res.Runs[0].RMSD)
	}
	for i := 1; i < len(res.Runs); i++ {
		if res.Runs[i].FEB < res.Runs[i-1].FEB {
			t.Errorf("modes not sorted by FEB")
		}
		if res.Runs[i].RMSD < 2.0-1e-9 {
			t.Errorf("mode %d rmsd %v below dedupe threshold", i+1, res.Runs[i].RMSD)
		}
	}
}

func TestDockDeterministicPerSeed(t *testing.T) {
	rec, lig := setupPair(t, "1S4V", "042")
	s, _ := NewScorer(rec, lig)
	eng := &Engine{Config: testConfig(7), StepsPerRestart: 6}
	a, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("mode counts differ")
	}
	for i := range a.Runs {
		if a.Runs[i].FEB != b.Runs[i].FEB {
			t.Fatalf("mode %d FEB differs across identical seeds", i)
		}
	}
}

func TestDockImprovesOverRandom(t *testing.T) {
	rec, lig := setupPair(t, "1HUC", "0D6")
	s, _ := NewScorer(rec, lig)
	eng := &Engine{Config: testConfig(3), StepsPerRestart: 8}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	// Best found must be at least as good as the relaxed isolated
	// ligand (score ~0): docking should find attractive contacts.
	if best.FEB > 0.5 {
		t.Errorf("vina best FEB = %v, expected ≤ ~0", best.FEB)
	}
}

func TestInvalidConfig(t *testing.T) {
	rec, lig := setupPair(t, "1AIM", "074")
	s, _ := NewScorer(rec, lig)
	cfg := testConfig(1)
	cfg.Exhaustiveness = 0
	eng := &Engine{Config: cfg}
	if _, err := eng.Dock(s, lig); err == nil {
		t.Error("zero exhaustiveness accepted")
	}
}

func TestIntraPairs14(t *testing.T) {
	m := &chem.Molecule{Name: "CH"}
	for i := 0; i < 6; i++ {
		m.Atoms = append(m.Atoms, chem.Atom{Element: chem.Carbon, Pos: chem.V(float64(i)*1.5, 0, 0)})
	}
	for i := 0; i < 5; i++ {
		m.Bonds = append(m.Bonds, chem.Bond{A: i, B: i + 1, Order: chem.Single})
	}
	pairs := intraPairs14(m)
	has := func(a, b int) bool {
		for _, p := range pairs {
			if (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a) {
				return true
			}
		}
		return false
	}
	if has(0, 1) || has(0, 2) || has(0, 3) {
		t.Error("short-range pair included (Vina excludes 1-2..1-4)")
	}
	if !has(0, 4) || !has(0, 5) {
		t.Error("1-5+ pairs missing")
	}
}
