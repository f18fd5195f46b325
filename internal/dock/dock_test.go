package dock

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/prep"
)

func testLigand(t testing.TB, code string) *Ligand {
	t.Helper()
	raw, _ := data.GenerateLigand(code)
	return prepared(t, raw)
}

func prepared(t testing.TB, raw *chem.Molecule) *Ligand {
	t.Helper()
	mol2, err := prep.ConvertSDFToMol2(raw)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prep.PrepareLigand(mol2)
	if err != nil {
		t.Fatal(err)
	}
	lig, err := NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		t.Fatal(err)
	}
	return lig
}

func largeLigand(t testing.TB) *Ligand {
	t.Helper()
	raw, _ := data.GenerateLargeLigand()
	return prepared(t, raw)
}

func TestNewLigandErrors(t *testing.T) {
	if _, err := NewLigand(&chem.Molecule{Name: "E"}, &chem.TorsionTree{}); err == nil {
		t.Error("empty molecule accepted")
	}
	m := &chem.Molecule{Name: "X", Atoms: []chem.Atom{{Element: chem.Carbon}}}
	if _, err := NewLigand(m, nil); err == nil {
		t.Error("nil tree accepted")
	}
}

// TestNewLigandRejectsReversedTree: a tree whose torsion order is
// reversed breaks chem.TorsionTree's ordering rule, which Vina's
// torsion gradient needs, and NewLigand refuses it with an error that
// names the rule; the prepared tree itself is accepted.
func TestNewLigandRejectsReversedTree(t *testing.T) {
	prepared := largeLigand(t)
	tree := &chem.TorsionTree{Root: prepared.Tree.Root, Torsions: slices.Clone(prepared.Tree.Torsions)}
	slices.Reverse(tree.Torsions)
	_, err := NewLigand(prepared.Mol, tree)
	if err == nil || !strings.Contains(err.Error(), "ordering rule") {
		t.Fatalf("reversed tree: err = %v, want one naming the ordering rule", err)
	}
	if _, err := NewLigand(prepared.Mol, prepared.Tree); err != nil {
		t.Fatalf("prepared tree: %v", err)
	}
}

// rootFragment lists the atoms no torsion moves: the rigid fragment
// the pose frame — and with it the about point — is fixed in.
func rootFragment(lig *Ligand) []int {
	var root []int
	for i, u := range lig.Owners() {
		if u == 0 {
			root = append(root, i)
		}
	}
	return root
}

func randomTorsions(r *rand.Rand, n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = (r.Float64()*2 - 1) * math.Pi
	}
	return ts
}

func TestCoordsIdentityPose(t *testing.T) {
	lig := testLigand(t, "0E6")
	p := Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())}
	coords := lig.Coords(p)
	// Identity pose at origin: the about point — the input
	// conformation's centroid — sits at the origin.
	c := chem.Centroid(coords)
	if c.Norm() > 1e-9 {
		t.Errorf("identity-pose about point = %v", c)
	}
	// Torsions turn branches about a frame fixed in the root fragment:
	// they move the centroid, never the root fragment, so the about
	// point stays where the translation put it.
	p.Torsions = randomTorsions(rand.New(rand.NewSource(1)), lig.NumTorsions())
	turned := lig.Coords(p)
	root := rootFragment(lig)
	if len(root) == 0 || len(root) == len(coords) {
		t.Fatalf("root fragment has %d of %d atoms; fixture too weak", len(root), len(coords))
	}
	for _, i := range root {
		if turned[i] != coords[i] {
			t.Fatalf("root-fragment atom %d moved under torsions: %v -> %v", i, coords[i], turned[i])
		}
	}
	if chem.Centroid(turned).Norm() < 1e-6 {
		t.Error("centroid still at the origin after turning every torsion: coordinates are being re-centred")
	}
	// Bond lengths preserved vs reference.
	ref := lig.Reference()
	for _, b := range lig.Mol.Bonds {
		d0 := ref[b.A].Dist(ref[b.B])
		d1 := turned[b.A].Dist(turned[b.B])
		if math.Abs(d0-d1) > 1e-9 {
			t.Fatalf("bond %d-%d length changed", b.A, b.B)
		}
	}
}

func TestCoordsTranslation(t *testing.T) {
	lig := testLigand(t, "042")
	p := Pose{
		Translation: chem.V(10, -5, 3),
		Orientation: chem.QuatIdentity,
		Torsions:    make([]float64, lig.NumTorsions()),
	}
	coords := lig.Coords(p)
	// At zero torsions the about point is the centroid.
	c := chem.Centroid(coords)
	if c.Dist(p.Translation) > 1e-9 {
		t.Errorf("about point %v, want %v", c, p.Translation)
	}
	// Whatever the torsions, the translation carries the root fragment
	// — and the about point fixed in it — rigidly.
	p.Torsions = randomTorsions(rand.New(rand.NewSource(2)), lig.NumTorsions())
	turned := lig.Coords(p)
	for _, i := range rootFragment(lig) {
		if turned[i] != coords[i] {
			t.Fatalf("root-fragment atom %d moved under torsions: %v -> %v", i, coords[i], turned[i])
		}
	}
}

// TestTorsionProbeLeavesRestBitIdentical pins the property Vina's
// torsion gradient rests on: a pose that differs from another in
// angle k alone has bit-identical coordinates on every atom outside
// Moved_k, for every generated ligand and every k — and the root atom
// is outside every Moved set, so the frame never moves.
func TestTorsionProbeLeavesRestBitIdentical(t *testing.T) {
	ligands := []*Ligand{largeLigand(t)}
	for _, code := range data.LigandCodes {
		ligands = append(ligands, testLigand(t, code))
	}
	box := Box{Center: chem.V(1, -2, 3), Size: chem.V(20, 20, 20)}
	r := rand.New(rand.NewSource(22))
	for _, lig := range ligands {
		n := lig.Mol.NumAtoms()
		base := RandomPose(r, box, lig.NumTorsions())
		want := lig.Coords(base)
		probe := base.Clone()
		var got []chem.Vec3
		for k, tor := range lig.Tree.Torsions {
			inMoved := make([]bool, n)
			for _, i := range tor.Moved {
				inMoved[i] = true
			}
			if inMoved[lig.Tree.Root] {
				t.Fatalf("%s: torsion %d moves the root atom %d", lig.Mol.Name, k, lig.Tree.Root)
			}
			for _, delta := range []float64{0.5, -0.5, 0.0625} {
				probe.Torsions[k] = base.Torsions[k] + delta
				got = lig.CoordsInto(probe, got)
				changed := 0
				for i := range got {
					same := math.Float64bits(got[i].X) == math.Float64bits(want[i].X) &&
						math.Float64bits(got[i].Y) == math.Float64bits(want[i].Y) &&
						math.Float64bits(got[i].Z) == math.Float64bits(want[i].Z)
					if !same {
						changed++
						if !inMoved[i] {
							t.Fatalf("%s: torsion %d %+v moved atom %d outside Moved: %v -> %v",
								lig.Mol.Name, k, delta, i, want[i], got[i])
						}
					}
				}
				if changed == 0 {
					t.Fatalf("%s: torsion %d %+v moved nothing", lig.Mol.Name, k, delta)
				}
			}
			probe.Torsions[k] = base.Torsions[k]
		}
	}
}

func TestCoordsRigidInvariants(t *testing.T) {
	lig := testLigand(t, "074")
	r := rand.New(rand.NewSource(3))
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(20, 20, 20)}
	base := lig.Coords(Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())})
	for i := 0; i < 25; i++ {
		p := RandomPose(r, box, lig.NumTorsions())
		coords := lig.Coords(p)
		// All bond lengths invariant under any pose.
		for _, b := range lig.Mol.Bonds {
			d0 := base[b.A].Dist(base[b.B])
			d1 := coords[b.A].Dist(coords[b.B])
			if math.Abs(d0-d1) > 1e-6 {
				t.Fatalf("pose %d: bond %d-%d length %v -> %v", i, b.A, b.B, d0, d1)
			}
		}
		if !box.Contains(p.Translation) {
			t.Fatalf("random pose translation outside box")
		}
	}
}

func TestCoordsPanicsOnTorsionMismatch(t *testing.T) {
	lig := testLigand(t, "0D6")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	lig.Coords(Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions()+2)})
}

func TestPerturbSmallAmplitude(t *testing.T) {
	lig := testLigand(t, "0E6")
	r := rand.New(rand.NewSource(9))
	p := Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())}
	q := Perturb(r, p, 0.1, 0.02)
	if q.Translation.Norm() > 2 {
		t.Errorf("perturbation moved too far: %v", q.Translation)
	}
	// The original must be untouched (deep copy).
	if p.Translation.Norm() != 0 {
		t.Error("Perturb mutated its input translation")
	}
	for _, a := range p.Torsions {
		if a != 0 {
			t.Error("Perturb mutated input torsions")
		}
	}
	// Torsions stay wrapped.
	for _, a := range q.Torsions {
		if a < -math.Pi || a > math.Pi {
			t.Errorf("torsion %v not wrapped", a)
		}
	}
}

func TestClampToBox(t *testing.T) {
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(10, 10, 10)}
	p := Pose{Translation: chem.V(100, -3, 7), Orientation: chem.QuatIdentity}
	ClampToBox(&p, box)
	if !box.Contains(p.Translation) {
		t.Errorf("clamped pose outside box: %v", p.Translation)
	}
	if p.Translation.X != 5 || p.Translation.Y != -3 || p.Translation.Z != 5 {
		t.Errorf("clamp = %v", p.Translation)
	}
}

func TestResultBestAndSort(t *testing.T) {
	r := &Result{Runs: []RunResult{
		{Run: 1, FEB: -3},
		{Run: 2, FEB: -7},
		{Run: 3, FEB: -5},
	}}
	best, err := r.Best()
	if err != nil || best.Run != 2 {
		t.Errorf("best = %+v, %v", best, err)
	}
	r.SortByFEB()
	if r.Runs[0].Run != 2 || r.Runs[2].Run != 1 {
		t.Errorf("sort order wrong: %+v", r.Runs)
	}
	empty := &Result{}
	if _, err := empty.Best(); err == nil {
		t.Error("empty result Best should error")
	}
}

func TestResultToDLG(t *testing.T) {
	r := &Result{
		Program: "AutoDock 4.2.5.1", Receptor: "2HHN", Ligand: "0E6", Seed: 11,
		Runs: []RunResult{{Run: 1, FEB: -6.5, RMSD: 42}},
	}
	d := r.ToDLG()
	if d.Program != r.Program || len(d.Runs) != 1 || d.Runs[0].FEB != -6.5 {
		t.Errorf("dlg = %+v", d)
	}
}

// neighborsOf walks pn's candidates for q the way map generation does
// (the atom's own index as its class, one FilterIndexed pass) and
// returns every atom within the cutoff with its squared distance.
func neighborsOf(pn *PackedNeighbors, cutoff float64, q chem.Vec3) map[int]float64 {
	atoms, cand := pn.Atoms(), pn.Candidates(q)
	got := map[int]float64{}
	var buf [64]Hit
	for at := 0; at < len(cand); at += len(buf) {
		end := min(at+len(buf), len(cand))
		m := FilterIndexed(atoms, cand[at:end], q.X, q.Y, q.Z, cutoff*cutoff, buf[:], 0)
		for _, h := range buf[:m] {
			got[int(h.Cls)] = h.R2
		}
	}
	return got
}

// indexClass packs every atom with its own index as class, as
// grid.Generate does.
func indexClass(atom int32) int32 { return atom }

func TestNeighborListMatchesBruteForce(t *testing.T) {
	rec, _ := data.GenerateReceptor("1CSB")
	pn := NewPackedNeighbors(rec, 8, indexClass)
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		q := chem.V(r.Float64()*30-15, r.Float64()*30-15, r.Float64()*30-15)
		brute := map[int]bool{}
		for i, a := range rec.Atoms {
			if a.Pos.Dist(q) <= 8 {
				brute[i] = true
			}
		}
		got := neighborsOf(pn, 8, q)
		for i, r2 := range got {
			if !brute[i] || r2 != rec.Atoms[i].Pos.Dist2(q) {
				t.Fatalf("trial %d: atom %d at r² %v not a brute-force neighbour", trial, i, r2)
			}
		}
		if len(got) != len(brute) {
			t.Fatalf("trial %d: %d vs brute %d", trial, len(got), len(brute))
		}
	}
	// A query at an atom's own position sees that atom — including the
	// atoms that define the bounding box, which sit exactly on the outer
	// faces of the boundary cells.
	for i, a := range rec.Atoms {
		if r2, found := neighborsOf(pn, 8, a.Pos)[i]; !found || r2 != 0 {
			t.Fatalf("atom %d not found by its own query", i)
		}
	}
	// Far query returns nothing.
	if count := len(neighborsOf(pn, 8, chem.V(1e4, 1e4, 1e4))); count != 0 {
		t.Errorf("far query hit %d atoms", count)
	}
}

// TestNeighborListForNeighbors2 pins the r²-form neighbour walk over
// Candidates: every reported r² is exact, and membership agrees with
// the cutoff at random queries.
func TestNeighborListForNeighbors2(t *testing.T) {
	rec, _ := data.GenerateReceptor("1CSB")
	pn := NewPackedNeighbors(rec, 8, indexClass)
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		q := chem.V(r.Float64()*30-15, r.Float64()*30-15, r.Float64()*30-15)
		got := neighborsOf(pn, 8, q)
		for i, r2 := range got {
			if want := rec.Atoms[i].Pos.Dist2(q); r2 != want {
				t.Fatalf("r² wrong for atom %d: got %v want %v", i, r2, want)
			}
		}
		for i, a := range rec.Atoms {
			if _, ok := got[i]; (a.Pos.Dist(q) <= 8) != ok {
				t.Fatalf("trial %d: atom %d membership mismatch", trial, i)
			}
		}
	}
}

// TestNeighborListBoundaryFaces probes each face of the
// cutoff-expanded bounding box: a query just inside the guard must see
// exactly the brute-force neighbour set (usually empty but the guard
// may not drop real neighbours), and a query just outside must
// early-out with no candidate at all.
func TestNeighborListBoundaryFaces(t *testing.T) {
	rec, _ := data.GenerateReceptor("1CSB")
	const cutoff = 8.0
	pn := NewPackedNeighbors(rec, cutoff, indexClass)
	min, max := chem.BoundingBox(rec.Positions())
	center := min.Add(max).Scale(0.5)
	const eps = 1e-6
	cases := []struct {
		name   string
		q      chem.Vec3
		inside bool
	}{
		{"-x inside", chem.V(min.X-cutoff+eps, center.Y, center.Z), true},
		{"-x outside", chem.V(min.X-cutoff-eps, center.Y, center.Z), false},
		{"+x inside", chem.V(max.X+cutoff-eps, center.Y, center.Z), true},
		{"+x outside", chem.V(max.X+cutoff+eps, center.Y, center.Z), false},
		{"-y inside", chem.V(center.X, min.Y-cutoff+eps, center.Z), true},
		{"-y outside", chem.V(center.X, min.Y-cutoff-eps, center.Z), false},
		{"+y inside", chem.V(center.X, max.Y+cutoff-eps, center.Z), true},
		{"+y outside", chem.V(center.X, max.Y+cutoff+eps, center.Z), false},
		{"-z inside", chem.V(center.X, center.Y, min.Z-cutoff+eps), true},
		{"-z outside", chem.V(center.X, center.Y, min.Z-cutoff-eps), false},
		{"+z inside", chem.V(center.X, center.Y, max.Z+cutoff-eps), true},
		{"+z outside", chem.V(center.X, center.Y, max.Z+cutoff+eps), false},
	}
	for _, tc := range cases {
		brute := map[int]bool{}
		for i, a := range rec.Atoms {
			if a.Pos.Dist(tc.q) <= cutoff {
				brute[i] = true
			}
		}
		if !tc.inside && len(brute) != 0 {
			t.Fatalf("%s: test is self-inconsistent, brute found %d", tc.name, len(brute))
		}
		// Beyond the expanded box the walk must not visit a single
		// candidate, in or out of the cutoff.
		if n := len(pn.Candidates(tc.q)); !tc.inside && n != 0 {
			t.Errorf("%s: %d candidates beyond the expanded box", tc.name, n)
		}
		got := neighborsOf(pn, cutoff, tc.q)
		if len(got) != len(brute) {
			t.Errorf("%s: got %d neighbours, brute %d", tc.name, len(got), len(brute))
		}
		for i := range brute {
			if _, ok := got[i]; !ok {
				t.Errorf("%s: missing atom %d", tc.name, i)
			}
		}
	}
}

func TestRefineValidation(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.Vec3{}, Size: chem.V(20, 20, 20)}
	pose := Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())}
	s := constScorer{}
	if _, err := Refine(s, lig, box, pose, 0, 1); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := pose.Clone()
	bad.Torsions = append(bad.Torsions, 0)
	if _, err := Refine(s, lig, box, bad, 10, 1); err == nil {
		t.Error("torsion mismatch accepted")
	}
}

// constScorer returns the squared distance from a target point, so
// refinement has a smooth landscape with a known optimum.
type constScorer struct{}

func (constScorer) Score(coords []chem.Vec3) float64 {
	target := chem.V(3, -2, 1)
	c := chem.Centroid(coords)
	return c.Dist2(target)
}

func TestRefineConvergesToOptimum(t *testing.T) {
	lig := testLigand(t, "042")
	box := Box{Center: chem.Vec3{}, Size: chem.V(30, 30, 30)}
	start := Pose{
		Translation: chem.V(-8, 8, -8),
		Orientation: chem.QuatIdentity,
		Torsions:    make([]float64, lig.NumTorsions()),
	}
	res, err := Refine(constScorer{}, lig, box, start, 600, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Improved <= 0 {
		t.Errorf("no improvement: %+v", res)
	}
	// Should approach the optimum at (3,-2,1): final score well below
	// the starting ~350.
	if res.FEB > 5 {
		t.Errorf("refinement stalled at %v", res.FEB)
	}
	if res.Evals < 2 {
		t.Errorf("evals = %d", res.Evals)
	}
}

func TestRefineDeterministic(t *testing.T) {
	lig := testLigand(t, "074")
	box := Box{Center: chem.Vec3{}, Size: chem.V(30, 30, 30)}
	start := Pose{Translation: chem.V(5, 5, 5), Orientation: chem.QuatIdentity,
		Torsions: make([]float64, lig.NumTorsions())}
	a, err := Refine(constScorer{}, lig, box, start, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Refine(constScorer{}, lig, box, start, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.FEB != b.FEB {
		t.Error("refinement not deterministic per seed")
	}
}

// TestWrapAngle: inside (−3π, 3π] WrapAngle is one exact subtraction
// of a whole turn or none; beyond it an angle of any finite size lands
// in [−π, π]; ±Inf and NaN give NaN instead of a loop that never ends.
func TestWrapAngle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		a := (r.Float64()*6 - 3) * math.Pi
		want := a
		if a > math.Pi {
			want = a - 2*math.Pi
		} else if a < -math.Pi {
			want = a + 2*math.Pi
		}
		if got := WrapAngle(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapAngle(%v) = %v, want %v", a, got, want)
		}
	}
	for _, a := range []float64{3.5 * math.Pi, -7.25 * math.Pi, 1e6, -1e12, 1e300, math.MaxFloat64, -math.MaxFloat64} {
		if got := WrapAngle(a); !(got >= -math.Pi && got <= math.Pi) {
			t.Errorf("WrapAngle(%v) = %v, outside [−π, π]", a, got)
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := WrapAngle(a); !math.IsNaN(got) {
			t.Errorf("WrapAngle(%v) = %v, want NaN", a, got)
		}
	}
}
