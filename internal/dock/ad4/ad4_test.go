package ad4

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/grid"
	"repro/internal/prep"
)

func setupPair(t testing.TB, recCode, ligCode string) (*grid.Maps, *dock.Ligand, dock.Box) {
	t.Helper()
	rec, lig := preparePair(t, recCode, ligCode)
	maps, box := mapsFor(t, rec, lig)
	return maps, lig, box
}

// preparePair returns the prepared receptor and the ligand model of a
// pair.
func preparePair(t testing.TB, recCode, ligCode string) (*chem.Molecule, *dock.Ligand) {
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

// mapsFor generates the test maps of the ligand's types over the
// prepared receptor: a 20³ lattice at 1.4 Å around the origin, and the
// box it spans.
func mapsFor(t testing.TB, rec *chem.Molecule, lig *dock.Ligand) (*grid.Maps, dock.Box) {
	t.Helper()
	spec := grid.Spec{Center: chem.Vec3{}, NPts: [3]int{20, 20, 20}, Spacing: 1.4}
	maps, err := grid.Generate(rec, spec, lig.Mol.AtomTypes())
	if err != nil {
		t.Fatal(err)
	}
	box := dock.Box{
		Center: spec.Center,
		Size: chem.V(
			float64(spec.NPts[0]-1)*spec.Spacing,
			float64(spec.NPts[1]-1)*spec.Spacing,
			float64(spec.NPts[2]-1)*spec.Spacing),
	}
	return maps, box
}

func TestNewScorerValidation(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	if _, err := NewScorer(maps, lig); err != nil {
		t.Fatal(err)
	}
	// Ligand with a type lacking a map is rejected.
	bad := lig.Mol.Clone()
	bad.Atoms[0].Type = chem.TypeZn
	tree, _ := chem.BuildTorsionTree(bad)
	badLig, _ := dock.NewLigand(bad, tree)
	if _, err := NewScorer(maps, badLig); err == nil {
		t.Error("ligand type without map accepted")
	}
	// Untyped ligand rejected.
	untyped := lig.Mol.Clone()
	untyped.Atoms[0].Type = ""
	utree, _ := chem.BuildTorsionTree(untyped)
	uLig, _ := dock.NewLigand(untyped, utree)
	if _, err := NewScorer(maps, uLig); err == nil {
		t.Error("untyped ligand accepted")
	}
}

func TestScoreFiniteAndPenalizesEscape(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	inPose := dock.Pose{Translation: box.Center, Orientation: chem.QuatIdentity,
		Torsions: make([]float64, lig.NumTorsions())}
	in := s.Score(lig.Coords(inPose))
	if math.IsNaN(in) || math.IsInf(in, 0) {
		t.Fatalf("score = %v", in)
	}
	outPose := inPose.Clone()
	outPose.Translation = chem.V(500, 500, 500)
	out := s.Score(lig.Coords(outPose))
	if out <= in {
		t.Errorf("escaped pose (%v) not worse than pocket pose (%v)", out, in)
	}
}

func TestTorsionPenaltyMonotone(t *testing.T) {
	// More rotatable bonds → larger torsional entropy term.
	maps, lig, _ := setupPair(t, "1HUC", "0D6")
	s, _ := NewScorer(maps, lig)
	if lig.NumTorsions() == 0 {
		t.Skip("ligand drew no torsions")
	}
	if s.torsTerm <= 0 {
		t.Errorf("torsion penalty %v not positive", s.torsTerm)
	}
	if math.Abs(s.torsTerm-weightTors*float64(lig.NumTorsions())) > 1e-12 {
		t.Errorf("penalty %v inconsistent", s.torsTerm)
	}
}

func TestIntraPairsExclude12And13(t *testing.T) {
	m := &chem.Molecule{Name: "CH"}
	// Linear chain 0-1-2-3-4.
	for i := 0; i < 5; i++ {
		m.Atoms = append(m.Atoms, chem.Atom{Element: chem.Carbon, Pos: chem.V(float64(i)*1.5, 0, 0)})
	}
	for i := 0; i < 4; i++ {
		m.Bonds = append(m.Bonds, chem.Bond{A: i, B: i + 1, Order: chem.Single})
	}
	pairs := intraPairs(m)
	has := func(a, b int) bool {
		for _, p := range pairs {
			if (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a) {
				return true
			}
		}
		return false
	}
	if has(0, 1) || has(0, 2) {
		t.Error("1-2 or 1-3 pair included")
	}
	if !has(0, 3) || !has(0, 4) || !has(1, 4) {
		t.Error("1-4/1-5 pairs missing")
	}
}

func TestDockProducesRuns(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	params := prep.DefaultDPF(lig.Mol.Name+".pdbqt", maps.Receptor+".maps.fld", 1234)
	params.Runs = 3
	params.PopSize = 20
	params.Gens = 8
	params.Evals = 4000
	eng := &Engine{Params: params, Box: box}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	if res.Program != ProgramName || res.Receptor != "2HHN" || res.Ligand != lig.Mol.Name {
		t.Errorf("metadata: %+v", res)
	}
	for _, run := range res.Runs {
		if math.IsNaN(run.FEB) || math.IsNaN(run.RMSD) || run.RMSD < 0 {
			t.Errorf("run %d: feb=%v rmsd=%v", run.Run, run.FEB, run.RMSD)
		}
		if d := run.Pose.Translation.Sub(box.Center); math.Abs(d.X) > box.Size.X/2 ||
			math.Abs(d.Y) > box.Size.Y/2 || math.Abs(d.Z) > box.Size.Z/2 {
			t.Errorf("run %d pose escaped the box", run.Run)
		}
	}
}

func TestDockDeterministicPerSeed(t *testing.T) {
	maps, lig, box := setupPair(t, "1S4V", "042")
	s, _ := NewScorer(maps, lig)
	params := prep.DefaultDPF("l", "f", 777)
	params.Runs, params.PopSize, params.Gens, params.Evals = 2, 12, 5, 1500
	eng := &Engine{Params: params, Box: box}
	a, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].FEB != b.Runs[i].FEB {
			t.Fatalf("run %d FEB differs between identical seeds", i)
		}
	}
}

func TestDockImprovesOverRandom(t *testing.T) {
	// The GA champion must beat the average random pose by a wide
	// margin — the core search property.
	maps, lig, box := setupPair(t, "1HUC", "0D6")
	s, _ := NewScorer(maps, lig)
	params := prep.DefaultDPF("l", "f", 99)
	params.Runs, params.PopSize, params.Gens, params.Evals = 2, 30, 15, 10000
	eng := &Engine{Params: params, Box: box}
	res, err := eng.Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best()
	// Average of random poses.
	var avg float64
	n := 50
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		p := dock.RandomPose(rng, box, lig.NumTorsions())
		avg += s.Score(lig.Coords(p))
	}
	avg /= float64(n)
	if best.FEB >= avg {
		t.Errorf("GA best %v not better than random average %v", best.FEB, avg)
	}
}

func TestInvalidParams(t *testing.T) {
	maps, lig, box := setupPair(t, "1AIM", "074")
	s, _ := NewScorer(maps, lig)
	eng := &Engine{Params: prep.DPF{Runs: 0, PopSize: 10}, Box: box}
	if _, err := eng.Dock(s, lig); err == nil {
		t.Error("zero runs accepted")
	}
	eng = &Engine{Params: prep.DPF{Runs: 1, PopSize: 1}, Box: box}
	if _, err := eng.Dock(s, lig); err == nil {
		t.Error("pop size 1 accepted")
	}
}
