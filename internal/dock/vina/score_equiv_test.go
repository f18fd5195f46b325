package vina

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/dock"
)

// randomPoses returns a deterministic spread of poses around the
// pocket: translations within a few Å, random orientations and
// torsions, including some that jam the ligand into the receptor so
// the steep repulsive region is exercised too.
func randomPoses(lig *dock.Ligand, n int, seed int64) []dock.Pose {
	r := rand.New(rand.NewSource(seed))
	poses := make([]dock.Pose, n)
	for i := range poses {
		q := chem.Quat{W: r.NormFloat64(), X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()}
		q = q.Normalize()
		tors := make([]float64, lig.NumTorsions())
		for t := range tors {
			tors[t] = (r.Float64() - 0.5) * 2 * math.Pi
		}
		poses[i] = dock.Pose{
			Translation: chem.V(r.Float64()*16-8, r.Float64()*16-8, r.Float64()*16-8),
			Orientation: q,
			Torsions:    tors,
		}
	}
	return poses
}

// TestScoreMatchesAnalytic pins the table-backed scoring path against
// the closed-form reference over randomized poses. The per-pair
// interpolation error is ≤ 1e-3 kcal/mol across the scored range
// (see internal/dock/tables), so the pose-level tolerance is that
// bound times a generous pair-count allowance plus a small relative
// term for clashing poses whose energies are dominated by the clamped
// repulsive core.
func TestScoreMatchesAnalytic(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	for _, pose := range randomPoses(lig, 50, 7) {
		coords := lig.Coords(pose)
		got := s.Score(coords)
		want := s.ScoreAnalytic(coords)
		tol := 0.05 + 1e-3*math.Abs(want)
		if math.Abs(got-want) > tol {
			t.Errorf("pose at %v: table %v analytic %v |Δ|=%g > %g",
				pose.Translation, got, want, math.Abs(got-want), tol)
		}
	}
}

// TestScoreLargeReceptor runs the scorer on a receptor above the
// fine-cell gate of dock.PackedNeighbors (no dataset receptor is), so
// per-pose Score and ScoreBatch both take the prune-sphere entry walk:
// Score stays within the table tolerance of the analytic reference,
// equals ScoreBatch bit for bit, and allocates nothing. The receptor is
// a seeded jittered 2 Å carbon lattice, 23³ = 12167 atoms.
func TestScoreLargeReceptor(t *testing.T) {
	_, lig := setupPair(t, "2HHN", "0E6")
	r := rand.New(rand.NewSource(2014))
	rec := &chem.Molecule{Name: "lattice23"}
	for z := -11; z <= 11; z++ {
		for y := -11; y <= 11; y++ {
			for x := -11; x <= 11; x++ {
				rec.Atoms = append(rec.Atoms, chem.Atom{
					Element: chem.Carbon, Type: chem.TypeC,
					Pos: chem.V(2*float64(x)+r.Float64()-0.5, 2*float64(y)+r.Float64()-0.5, 2*float64(z)+r.Float64()-0.5),
				})
			}
		}
	}
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	// Translations reach past the lattice faces, so some atoms query
	// clamped boundary cells and some poses leave the guard box.
	poses := randomPoses(lig, 40, 23)
	for i := range poses {
		poses[i].Translation = poses[i].Translation.Scale(3.5)
	}
	b := dock.NewBatch(lig, len(poses))
	for _, p := range poses {
		b.Append(p)
	}
	batch := make([]float64, len(poses))
	s.ScoreBatch(b, batch)
	ws := dock.NewWorkspace(lig)
	scored := 0
	for k, pose := range poses {
		coords := ws.Coords(pose)
		got := s.Score(coords)
		want := s.ScoreAnalytic(coords)
		if tol := 0.05 + 1e-3*math.Abs(want); math.Abs(got-want) > tol {
			t.Errorf("pose %d at %v: table %v analytic %v |Δ|=%g > %g",
				k, pose.Translation, got, want, math.Abs(got-want), tol)
		}
		if batch[k] != got {
			t.Errorf("pose %d: ScoreBatch %.17g != Score %.17g", k, batch[k], got)
		}
		if s.ReportedFEB(coords) != 0 {
			scored++
		}
	}
	if scored < len(poses)/2 {
		t.Fatalf("only %d of %d poses touch the lattice", scored, len(poses))
	}
	coords := ws.Coords(poses[0])
	if allocs := testing.AllocsPerRun(20, func() { s.Score(coords) }); allocs != 0 {
		t.Fatalf("Score allocates %.1f/op, want 0", allocs)
	}
}

// TestReportedFEBSharesInterEnergy checks the Score/ReportedFEB dedupe:
// for any pose the two must agree on the intermolecular part exactly
// (same code path), differing only by the internal-energy delta.
func TestReportedFEBSharesInterEnergy(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	for _, pose := range randomPoses(lig, 10, 11) {
		coords := lig.Coords(pose)
		feb := s.ReportedFEB(coords)
		score := s.Score(coords)
		wantDelta := intraWeight * (s.intraEnergy(coords) - s.intraRef)
		if math.Abs((score-feb)-wantDelta) > 1e-12 {
			t.Fatalf("score %v − feb %v ≠ intra delta %v", score, feb, wantDelta)
		}
	}
}

func benchCoords(b *testing.B, n int) (*Scorer, [][]chem.Vec3) {
	rec, lig := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		b.Fatal(err)
	}
	poses := randomPoses(lig, n, 3)
	coords := make([][]chem.Vec3, n)
	for i, p := range poses {
		coords[i] = lig.Coords(p)
	}
	return s, coords
}

func BenchmarkScoreTable(b *testing.B) {
	s, coords := benchCoords(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(coords[i%len(coords)])
	}
}

func BenchmarkScoreAnalytic(b *testing.B) {
	s, coords := benchCoords(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreAnalytic(coords[i%len(coords)])
	}
}
