package vina

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/prep"
)

// campaignBox is the 20.8 Å search box of the campaign effort, centred
// on the receptor's bounding box as the workflow centres it.
func campaignBox(rec *chem.Molecule) dock.Box {
	lo, hi := chem.BoundingBox(rec.Positions())
	return dock.Box{Center: lo.Lerp(hi, 0.5), Size: chem.V(20.8, 20.8, 20.8)}
}

// gradientPairs are the pairs the gradient tests run on: the reference
// pair, a second Table 3 ligand and the 35-torsion large pair.
var gradientPairs = [][2]string{{"2HHN", "0E6"}, {"2HHN", "042"}, {data.LargeReceptorCode, data.LargeLigandCode}}

// TestEnergyGradMatchesScore: the gradient pass returns Score's energy
// to the bit at random poses of every gradient pair, so every energy
// the search reports is Score's.
func TestEnergyGradMatchesScore(t *testing.T) {
	for _, p := range gradientPairs {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		box := campaignBox(rec)
		r := rand.New(rand.NewSource(43))
		grad := make([]chem.Vec3, lig.Mol.NumAtoms())
		for i := 0; i < 30; i++ {
			coords := lig.Coords(dock.RandomPose(r, box, lig.NumTorsions()))
			got, want := s.energyGrad(coords, grad, false), s.Score(coords)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s/%s pose %d: energyGrad %v (%016x), Score %v (%016x)",
					p[0], p[1], i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestPoseGradientMatchesCentralDifference: every component of the
// pose gradient — translation, rotation vector, each torsion — is
// within 2 % of a central difference of the energy at h = 1e-6
// (relative to 1e-3 + |numeric|), at 30 random poses of each gradient
// pair, on the authentic potential (Score) and on the capped one.
//
// Vina's energy is not differentiable everywhere: a pair term jumps by
// its tail value where the pair crosses the 8 Å cutoff, and the tables
// are linear in r² between nodes, so the slope steps at every node. A
// central difference across such a point is no derivative, so a
// component counts only where the difference at h agrees within 2 %
// with the difference at h/4; that test does not read the analytic
// gradient. At most 2 % of the components may fail it.
func TestPoseGradientMatchesCentralDifference(t *testing.T) {
	for _, p := range gradientPairs {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		for _, hunt := range []bool{false, true} {
			checkPoseGradient(t, p[0]+"/"+p[1], s, campaignBox(rec), hunt)
		}
	}
}

// checkPoseGradient is TestPoseGradientMatchesCentralDifference on one
// pair and one potential.
func checkPoseGradient(t *testing.T, name string, s *Scorer, box dock.Box, hunt bool) {
	t.Helper()
	const h = 1e-6
	if hunt {
		name += " capped"
	}
	lig := s.Lig
	ws := dock.NewWorkspace(lig)
	n := 6 + lig.NumTorsions()
	ws.Local.Resize(n, lig.Mol.NumAtoms())
	g := make([]float64, n)
	scratch := make([]chem.Vec3, lig.Mol.NumAtoms())
	energy := func(pose dock.Pose) float64 { return s.energyGrad(lig.Coords(pose), scratch, hunt) }
	r := rand.New(rand.NewSource(47))
	// central is the central difference of the energy along component
	// c at step d.
	central := func(pose dock.Pose, c int, d float64) float64 {
		plus, minus := pose.Clone(), pose.Clone()
		switch {
		case c < 3:
			v := [3]float64{}
			v[c] = d
			plus.Translation = pose.Translation.Add(chem.V(v[0], v[1], v[2]))
			minus.Translation = pose.Translation.Sub(chem.V(v[0], v[1], v[2]))
		case c < 6:
			v := [3]float64{}
			v[c-3] = 1
			w := chem.V(v[0], v[1], v[2])
			plus.Orientation = chem.AxisAngleQuat(w, d).Mul(pose.Orientation).Normalize()
			minus.Orientation = chem.AxisAngleQuat(w, -d).Mul(pose.Orientation).Normalize()
		default:
			plus.Torsions[c-6] += d
			minus.Torsions[c-6] -= d
		}
		return (energy(plus) - energy(minus)) / (2 * d)
	}
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / (1e-3 + math.Abs(want)) }
	checked, kinked := 0, 0
	for i := 0; i < 30; i++ {
		pose := dock.RandomPose(r, box, lig.NumTorsions())
		evalPose(s, ws, &pose, g, hunt)
		for c := 0; c < n; c++ {
			numeric := central(pose, c, h)
			if relErr(central(pose, c, h/4), numeric) > 0.02 {
				kinked++
				continue
			}
			if numeric != 0 {
				checked++
			}
			if rel := relErr(g[c], numeric); rel > 0.02 {
				t.Errorf("%s pose %d component %d: analytic %v, central difference %v (%.2f%%)",
					name, i, c, g[c], numeric, rel*100)
			}
		}
	}
	if kinked > 30*n/50 {
		t.Errorf("%s: %d of %d components not differentiable at h, want at most 2%%", name, kinked, 30*n)
	}
	if checked < 30*n/2 {
		t.Fatalf("%s: only %d of %d gradient components checked and non-zero: the poses miss the receptor", name, checked, 30*n)
	}
	t.Logf("%s: %d components checked, %d at a kink or jump", name, checked, kinked)
}

// TestHuntCapOnlyLowers: the capped search potential is never above
// Score at the same pose, and at random poses of every gradient pair,
// which clash, it is below it.
func TestHuntCapOnlyLowers(t *testing.T) {
	for _, p := range gradientPairs {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		box := campaignBox(rec)
		r := rand.New(rand.NewSource(53))
		grad := make([]chem.Vec3, lig.Mol.NumAtoms())
		lower := 0
		for i := 0; i < 30; i++ {
			coords := lig.Coords(dock.RandomPose(r, box, lig.NumTorsions()))
			capped, authentic := s.energyGrad(coords, grad, true), s.Score(coords)
			if capped > authentic {
				t.Fatalf("%s/%s pose %d: capped energy %v above Score %v", p[0], p[1], i, capped, authentic)
			}
			if capped < authentic {
				lower++
			}
		}
		if lower == 0 {
			t.Errorf("%s/%s: the cap lowered none of 30 random poses", p[0], p[1])
		}
	}
}

// TestDockStats pins what the counters say. They are per chain and
// summed in chain order, so they do not depend on the worker count. A
// capped search and its refinement open each chain and a capped search
// follows each step, plus a refinement per new best, so a dock runs
// between exhaustiveness·(steps + 2) and exhaustiveness·(2·steps + 2)
// local optimizations; each takes accepted steps, and the stall stop
// ends some of them on 2HHN/0E6. On the large pair the local
// optimizations of one Metropolis step of the 35-torsion ligand cost
// under 400 energy-plus-gradient evaluations (a compass search over its
// 41 degrees of freedom spent about 2,400).
func TestDockStats(t *testing.T) {
	for _, p := range []struct {
		rec, lig string
		steps    int
	}{{"2HHN", "0E6", 6}, {data.LargeReceptorCode, data.LargeLigandCode, 1}} {
		rec, lig := setupPair(t, p.rec, p.lig)
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(2014)
		cfg.Exhaustiveness = 2
		var first dock.Stats
		for _, workers := range []int{1, 2} {
			res, err := (&Engine{Config: cfg, StepsPerRestart: p.steps, Workers: workers}).Dock(s, lig)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if workers == 1 {
				first = st
			} else if st != first {
				t.Fatalf("%s/%s: stats depend on the worker count:\n1: %+v\n2: %+v", p.rec, p.lig, first, st)
			}
			lo, hi := int64(cfg.Exhaustiveness*(p.steps+2)), int64(cfg.Exhaustiveness*(2*p.steps+2))
			if st.LocalOptimizations < lo || st.LocalOptimizations > hi {
				t.Errorf("%s/%s: %d local optimizations, want %d to %d", p.rec, p.lig, st.LocalOptimizations, lo, hi)
			}
			if st.LocalIterations < st.LocalOptimizations || st.LocalIterations >= st.Evaluations {
				t.Errorf("%s/%s: %d accepted steps over %d evaluations in %d local optimizations",
					p.rec, p.lig, st.LocalIterations, st.Evaluations, st.LocalOptimizations)
			}
			if st.Stalled > st.LocalOptimizations {
				t.Errorf("%s/%s: %d stalled of %d local optimizations", p.rec, p.lig, st.Stalled, st.LocalOptimizations)
			}
			if p.lig == data.LargeLigandCode {
				if per := st.Evaluations / int64(cfg.Exhaustiveness*(p.steps+1)); per >= 400 {
					t.Errorf("%d evaluations per Metropolis step, want under 400", per)
				}
			}
			t.Logf("%s/%s workers %d: %+v", p.rec, p.lig, workers, st)
		}
		if p.lig == "0E6" {
			stallSum(t, s, lig, cfg, p.steps, first)
		}
	}
}

// stallSum requires the stall stop to end at least one local
// optimization over the docks of 2HHN/0E6 with seeds 2014–2021, first
// being seed 2014's stats. Each of the eight stalls 1 to 6 of its ≈ 20
// searches, so the assertion does not rest on one trajectory: a change
// that only moves rounding keeps ≈ 160 chances to stall, while a
// search without the stall stop has none.
func stallSum(t *testing.T, s *Scorer, lig *dock.Ligand, cfg prep.VinaConfig, steps int, first dock.Stats) {
	t.Helper()
	stalled, searches := first.Stalled, first.LocalOptimizations
	for seed := cfg.Seed + 1; seed <= 2021; seed++ {
		c := cfg
		c.Seed = seed
		res, err := (&Engine{Config: c, StepsPerRestart: steps, Workers: 1}).Dock(s, lig)
		if err != nil {
			t.Fatal(err)
		}
		stalled += res.Stats.Stalled
		searches += res.Stats.LocalOptimizations
	}
	if stalled == 0 {
		t.Errorf("2HHN/0E6: the stall stop ended none of %d local optimizations over seeds 2014–2021", searches)
	}
}
