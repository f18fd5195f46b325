package vina

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// TestLocalOptimizeNeverClimbs: a local optimization returns an energy
// no higher than its start's Score, and the Score of the pose it
// leaves, from random starts of the reference pair and of the large
// one and from the minima those reach; the capped search from
// each random start returns no more than its start's capped energy.
func TestLocalOptimizeNeverClimbs(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Config: testConfig(13)}
		box := dock.Box{Center: eng.Config.Center, Size: eng.Config.Size}
		ws := dock.NewWorkspace(lig)
		r := rand.New(rand.NewSource(13))
		starts := 6
		if raceDetector && p[1] == data.LargeLigandCode {
			starts = 2
		}
		cur, hunted := ws.Get(), ws.Get()
		scratch := make([]chem.Vec3, lig.Mol.NumAtoms())
		for i := 0; i < starts; i++ {
			dock.RandomPoseInto(r, cur, box, lig.NumTorsions())
			hunted.Set(*cur)
			start := s.energyGrad(lig.Coords(*hunted), scratch, true)
			if got := quasiNewton(s, ws, box, hunted, true); got > start {
				t.Fatalf("%s/%s start %d: capped search ended at %v, above its start's %v", p[0], p[1], i, got, start)
			}
			// From a random start, then again from where that ended: a
			// local minimum, where any kept uphill step shows.
			for pass := 0; pass < 2; pass++ {
				start := s.Score(lig.Coords(*cur))
				got := eng.localOptimize(s, ws, box, cur)
				if got > start {
					t.Fatalf("%s/%s start %d pass %d: local optimization ended at %v, above its start's %v", p[0], p[1], i, pass, got, start)
				}
				if want := s.Score(lig.Coords(*cur)); got != want {
					t.Fatalf("%s/%s start %d pass %d: returned %v, Score of the returned pose %v", p[0], p[1], i, pass, got, want)
				}
			}
		}
	}
}

// TestIntraEnergyInvariants: the internal energy is a function of the
// conformation alone. Translating or rotating the pose, or turning
// any torsion by a full turn, leaves it within 1e-9 relative.
func TestIntraEnergyInvariants(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {"1S4V", "042"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		box := dock.Box{Size: chem.V(26, 26, 26)}
		r := rand.New(rand.NewSource(29))
		for round := 0; round < 10; round++ {
			pose := dock.RandomPose(r, box, lig.NumTorsions())
			want := s.intraEnergy(lig.Coords(pose))
			check := func(label string, q dock.Pose) {
				t.Helper()
				if got := s.intraEnergy(lig.Coords(q)); math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Fatalf("%s/%s round %d, %s: intra %v, untouched pose %v", p[0], p[1], round, label, got, want)
				}
			}
			q := pose.Clone()
			q.Translation = q.Translation.Add(chem.V(r.NormFloat64()*5, r.NormFloat64()*5, r.NormFloat64()*5))
			check("translated", q)
			q = pose.Clone()
			q.Orientation = chem.AxisAngleQuat(chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()), r.NormFloat64()*2).Mul(q.Orientation).Normalize()
			check("rotated", q)
			for k := range pose.Torsions {
				q = pose.Clone()
				q.Torsions[k] += 2 * math.Pi
				check("torsion turned by 2π", q)
			}
		}
	}
}

// TestDockReportsScore: the search optimises candidates on the capped
// potential, but every mode it reports carries the Score of its pose,
// bit for bit.
func TestDockReportsScore(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Config: testConfig(31), StepsPerRestart: 6, Workers: 1}).Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) == 0 {
		t.Fatal("no modes")
	}
	for _, run := range res.Runs {
		if want := s.Score(lig.Coords(run.Pose)); math.Float64bits(run.FEB) != math.Float64bits(want) {
			t.Errorf("mode %d: energy %v, Score of its pose %v", run.Run, run.FEB, want)
		}
	}
}

// invariantTol is the relative tolerance of the receptor invariants:
// two sums of the same terms in another order differ by rounding
// alone, far below 1e-9 of max(|E|, 1 kcal/mol).
func invariantTol(e float64) float64 { return 1e-9 * max(math.Abs(e), 1) }

// invariantPoses draws n random poses in the test box and adds the
// local minimum of each of the first minima of them: clashing poses
// weigh the short-range terms, bound ones the long-range tail.
func invariantPoses(s *Scorer, lig *dock.Ligand, seed int64, n, minima int) []dock.Pose {
	eng := &Engine{Config: testConfig(seed)}
	box := dock.Box{Center: eng.Config.Center, Size: eng.Config.Size}
	ws := dock.NewWorkspace(lig)
	r := rand.New(rand.NewSource(seed))
	var poses []dock.Pose
	for i := 0; i < n; i++ {
		p := dock.RandomPose(r, box, lig.NumTorsions())
		poses = append(poses, p)
		if i < minima {
			m := p.Clone()
			eng.localOptimize(s, ws, box, &m)
			poses = append(poses, m)
		}
	}
	return poses
}

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

// TestReceptorOrderIndependence: the affinity is a sum over receptor
// atoms, so scoring against the receptor with its atoms shuffled moves
// Score only by summation-order rounding (invariantTol).
func TestReceptorOrderIndependence(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(41))
		shuffled, err := NewScorer(permuteAtoms(rec, r.Perm(rec.NumAtoms())), lig)
		if err != nil {
			t.Fatal(err)
		}
		for i, pose := range invariantPoses(s, lig, 41, 6, 2) {
			coords := lig.Coords(pose)
			want, got := s.Score(coords), shuffled.Score(coords)
			if math.Abs(got-want) > invariantTol(want) {
				t.Fatalf("%s/%s pose %d: Score %v against the shuffled receptor, %v against the original", p[0], p[1], i, got, want)
			}
		}
	}
}

// TestJointRigidMotion: rotating and translating the receptor and the
// pose together moves no interatomic distance, so Score moves only by
// the rounding of the moved coordinates (invariantTol). The motion
// also moves the receptor across the neighbour walk's cell raster.
func TestJointRigidMotion(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		poses := invariantPoses(s, lig, 43, 6, 2)
		r := rand.New(rand.NewSource(43))
		for motion := 0; motion < 3; motion++ {
			q := chem.AxisAngleQuat(chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()), r.Float64()*2*math.Pi)
			d := chem.V(r.NormFloat64()*20, r.NormFloat64()*20, r.NormFloat64()*20)
			moved := rec.Clone()
			for i := range moved.Atoms {
				moved.Atoms[i].Pos = q.Rotate(moved.Atoms[i].Pos).Add(d)
			}
			ms, err := NewScorer(moved, lig)
			if err != nil {
				t.Fatal(err)
			}
			for i, pose := range poses {
				mp := pose.Clone()
				mp.Orientation = q.Mul(pose.Orientation)
				mp.Translation = q.Rotate(pose.Translation).Add(d)
				want, got := s.Score(lig.Coords(pose)), ms.Score(lig.Coords(mp))
				if math.Abs(got-want) > invariantTol(want) {
					t.Fatalf("%s/%s motion %d pose %d: Score %v after the joint motion, %v before", p[0], p[1], motion, i, got, want)
				}
			}
		}
	}
}
