package ad4

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// scoreAnalytic is Score with the intramolecular term evaluated from
// the closed-form pair potential (sqrt per pair) instead of the radial
// tables: the oracle the table path is pinned against, and the
// baseline BenchmarkScoreAnalytic times.
func scoreAnalytic(s *Scorer, coords []chem.Vec3) float64 {
	var intra float64
	for _, pr := range s.intraTbl {
		ai, aj := &s.Lig.Mol.Atoms[pr.i], &s.Lig.Mol.Atoms[pr.j]
		r := coords[pr.i].Dist(coords[pr.j])
		if r > intraCutoff {
			continue
		}
		r = max(r, 0.5)
		intra += tables.PairEnergy(ai.Type.Params(), aj.Type.Params(), r)
		intra += coulombConst * ai.Charge * aj.Charge / (intraDielec * r * r)
	}
	return s.interEnergy(coords) + weightIntra*intra + s.torsTerm
}

// randomPoses returns a deterministic spread of poses: random
// orientations and torsions with translations that keep the ligand
// inside the grid box but include self-clashing conformations, so the
// clamped repulsive core of the intramolecular term is exercised.
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
			Translation: chem.V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5),
			Orientation: q,
			Torsions:    tors,
		}
	}
	return poses
}

// TestScoreMatchesAnalytic pins the table-backed intramolecular path
// against the closed-form reference over randomized poses. Both paths
// share the grid-interpolated intermolecular part, so the difference
// is purely table interpolation error: ≤ 1e-3 kcal/mol per pair in
// the scored range plus a small relative term for conformations whose
// internal energy is dominated by the clamped repulsive core.
func TestScoreMatchesAnalytic(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	for _, pose := range randomPoses(lig, 50, 17) {
		coords := lig.Coords(pose)
		got := s.Score(coords)
		want := scoreAnalytic(s, coords)
		tol := 0.05 + 1e-3*math.Abs(want)
		if math.Abs(got-want) > tol {
			t.Errorf("pose at %v: table %v analytic %v |Δ|=%g > %g",
				pose.Translation, got, want, math.Abs(got-want), tol)
		}
	}
}

func benchScorer(b *testing.B) (*Scorer, [][]chem.Vec3) {
	maps, lig, _ := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		b.Fatal(err)
	}
	poses := randomPoses(lig, 16, 5)
	coords := make([][]chem.Vec3, len(poses))
	for i, p := range poses {
		coords[i] = lig.Coords(p)
	}
	return s, coords
}

func BenchmarkScoreTable(b *testing.B) {
	s, coords := benchScorer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Score(coords[i%len(coords)])
	}
}

func BenchmarkScoreAnalytic(b *testing.B) {
	s, coords := benchScorer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreAnalytic(s, coords[i%len(coords)])
	}
}
