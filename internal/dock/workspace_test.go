package dock

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
)

func randomPoses(t testing.TB, lig *Ligand, n int) []Pose {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	box := Box{Center: chem.Vec3{}, Size: chem.V(20, 20, 20)}
	poses := make([]Pose, n)
	for i := range poses {
		poses[i] = RandomPose(r, box, lig.NumTorsions())
	}
	return poses
}

func TestCoordsIntoMatchesCoords(t *testing.T) {
	for _, code := range []string{"0E6", "0D6"} {
		lig := testLigand(t, code)
		buf := make([]chem.Vec3, 0, lig.Mol.NumAtoms())
		for _, p := range randomPoses(t, lig, 20) {
			want := lig.Coords(p)
			got := lig.CoordsInto(p, buf)
			buf = got // reuse across iterations, as a search loop would
			if len(got) != len(want) {
				t.Fatalf("%s: len %d vs %d", code, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s atom %d: CoordsInto %v vs Coords %v", code, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPoseSetCopies(t *testing.T) {
	src := Pose{
		Translation: chem.V(1, 2, 3),
		Orientation: chem.QuatIdentity,
		Torsions:    []float64{0.1, -0.2, 0.3},
	}
	var dst Pose
	dst.Set(src)
	if dst.Translation != src.Translation || dst.Orientation != src.Orientation {
		t.Fatal("rigid genes not copied")
	}
	dst.Torsions[0] = 99
	if src.Torsions[0] != 0.1 {
		t.Fatal("Set aliased the source torsions")
	}
	// Reusing dst keeps its storage.
	before := &dst.Torsions[0]
	dst.Set(src)
	if &dst.Torsions[0] != before {
		t.Fatal("Set reallocated existing torsion storage")
	}
}

func TestPerturbIntoMatchesPerturb(t *testing.T) {
	lig := testLigand(t, "0E6")
	src := randomPoses(t, lig, 1)[0]
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	dst := Pose{Torsions: make([]float64, 0, lig.NumTorsions())}
	for i := 0; i < 10; i++ {
		want := Perturb(r1, src, 1.5, 0.4)
		PerturbInto(r2, &dst, src, 1.5, 0.4)
		if want.Translation != dst.Translation || want.Orientation != dst.Orientation {
			t.Fatalf("iter %d: rigid genes diverge", i)
		}
		for k := range want.Torsions {
			if want.Torsions[k] != dst.Torsions[k] {
				t.Fatalf("iter %d torsion %d: %v vs %v", i, k, want.Torsions[k], dst.Torsions[k])
			}
		}
	}
}

func TestRandomPoseIntoMatchesRandomPose(t *testing.T) {
	box := Box{Center: chem.V(1, -2, 3), Size: chem.V(18, 22, 26)}
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	dst := Pose{Torsions: make([]float64, 0, 5)}
	for i := 0; i < 10; i++ {
		want := RandomPose(r1, box, 5)
		RandomPoseInto(r2, &dst, box, 5)
		if want.Translation != dst.Translation || want.Orientation != dst.Orientation {
			t.Fatalf("iter %d: rigid genes diverge", i)
		}
		for k := range want.Torsions {
			if want.Torsions[k] != dst.Torsions[k] {
				t.Fatalf("iter %d torsion %d differs", i, k)
			}
		}
	}
}

func TestWorkspaceGetPutRecycles(t *testing.T) {
	lig := testLigand(t, "0E6")
	ws := NewWorkspace(lig)
	if ws.Ligand() != lig {
		t.Fatal("workspace lost its ligand")
	}
	p := ws.Get()
	if cap(p.Torsions) < lig.NumTorsions() {
		t.Fatalf("scratch pose capacity %d < %d torsions", cap(p.Torsions), lig.NumTorsions())
	}
	ws.Put(p)
	if q := ws.Get(); q != p {
		t.Fatal("Put pose not recycled by next Get")
	}
}

// countingScorer is an allocation-free stand-in for the engines'
// scorers, so the workspace contract can be pinned without grids.
type countingScorer struct{ n int }

func (c *countingScorer) Score(coords []chem.Vec3) float64 {
	c.n++
	var e float64
	for _, p := range coords {
		e += p.Dot(p)
	}
	return e
}

// TestWorkspaceEvalZeroAllocs pins the tentpole contract: one full
// candidate evaluation — clone the pose, perturb it, clamp, build
// coordinates, score — allocates nothing once the workspace is warm.
func TestWorkspaceEvalZeroAllocs(t *testing.T) {
	lig := testLigand(t, "0E6")
	ws := NewWorkspace(lig)
	box := Box{Center: chem.Vec3{}, Size: chem.V(22, 22, 22)}
	r := rand.New(rand.NewSource(3))
	sc := &countingScorer{}
	cur, cand := ws.Get(), ws.Get()
	RandomPoseInto(r, cur, box, lig.NumTorsions())
	sink := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		PerturbInto(r, cand, *cur, 1.0, 0.3)
		ClampToBox(cand, box)
		sink += sc.Score(ws.Coords(*cand))
	})
	if allocs != 0 {
		t.Fatalf("candidate evaluation allocates %v objects/op, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Fatal("scores degenerate")
	}
}

func BenchmarkWorkspaceEval(b *testing.B) {
	raw := testLigand(b, "0E6")
	ws := NewWorkspace(raw)
	box := Box{Center: chem.Vec3{}, Size: chem.V(22, 22, 22)}
	r := rand.New(rand.NewSource(3))
	sc := &countingScorer{}
	cur, cand := ws.Get(), ws.Get()
	RandomPoseInto(r, cur, box, raw.NumTorsions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PerturbInto(r, cand, *cur, 1.0, 0.3)
		ClampToBox(cand, box)
		_ = sc.Score(ws.Coords(*cand))
	}
}
