package ad4

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/prep"
)

// permuteAtoms returns a copy of m whose atom i is m's atom perm[i],
// with the bonds renumbered to match.
func permuteAtoms(m *chem.Molecule, perm []int) *chem.Molecule {
	c := m.Clone()
	at := make([]int, len(perm)) // m's index → c's index
	for i, j := range perm {
		c.Atoms[i] = m.Atoms[j]
		at[j] = i
	}
	for k, b := range c.Bonds {
		c.Bonds[k].A, c.Bonds[k].B = at[b.A], at[b.B]
	}
	return c
}

// TestReceptorOrderIndependence: every map value is a sum over
// receptor atoms, so maps regenerated from the receptor with its atoms
// shuffled move Score only by summation-order rounding: within 1e-9 of
// max(|E|, 1 kcal/mol).
func TestReceptorOrderIndependence(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := preparePair(t, p[0], p[1])
		maps, box := mapsFor(t, rec, lig)
		r := rand.New(rand.NewSource(47))
		shuffledMaps, _ := mapsFor(t, permuteAtoms(rec, r.Perm(rec.NumAtoms())), lig)
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		shuffled, err := NewScorer(shuffledMaps, lig)
		if err != nil {
			t.Fatal(err)
		}
		// Docked poses weigh the maps' bound region, where no clamp or
		// clash hides a term; random ones the rest of the box.
		params := prep.DefaultDPF("l", "f", 47)
		params.Runs, params.PopSize, params.Gens, params.Evals = 4, 14, 5, 2500
		res, err := (&Engine{Params: params, Box: box, Workers: 1}).Dock(s, lig)
		if err != nil {
			t.Fatal(err)
		}
		var poses []dock.Pose
		for _, run := range res.Runs {
			poses = append(poses, run.Pose)
		}
		for i := 0; i < 6; i++ {
			poses = append(poses, dock.RandomPose(r, box, lig.NumTorsions()))
		}
		for i, pose := range poses {
			coords := lig.Coords(pose)
			want, got := s.Score(coords), shuffled.Score(coords)
			if math.Abs(got-want) > 1e-9*max(math.Abs(want), 1) {
				t.Fatalf("%s/%s pose %d: Score %v on the shuffled receptor's maps, %v on the original's", p[0], p[1], i, got, want)
			}
		}
	}
}
