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
