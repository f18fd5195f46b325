package vina

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// fullWalk is the search as the epoch-2 goldens were recorded from it:
// every probe materialized and scored from scratch with
// Score(ws.Coords(probe)). It is the test oracle for the incremental
// evaluator — the loops below are localOptimize and runChain with that
// one substitution — and exists nowhere outside this file.
type fullWalk struct {
	s  *Scorer
	ws *dock.Workspace
	// Observers for the per-probe test; nil in the Dock-level one.
	probed   func(p *dock.Pose, feb float64)
	accepted func()
}

func (fw *fullWalk) score(p *dock.Pose) float64 {
	feb := fw.s.Score(fw.ws.Coords(*p))
	if fw.probed != nil {
		fw.probed(p, feb)
	}
	return feb
}

func (fw *fullWalk) accept() {
	if fw.accepted != nil {
		fw.accepted()
	}
}

func (fw *fullWalk) localOptimize(box dock.Box, cur *dock.Pose, r *rand.Rand) float64 {
	nt := fw.ws.Ligand().NumTorsions()
	probe := fw.ws.Get()
	defer fw.ws.Put(probe)
	curFeb := fw.s.Score(fw.ws.Coords(*cur))
	try := func(improved *bool) {
		if feb := fw.score(probe); feb < curFeb {
			cur.Set(*probe)
			curFeb = feb
			fw.accept()
			*improved = true
		}
	}
	step := 1.0
	for step > 0.12 {
		improved := false
		for axis := 0; axis < 3; axis++ {
			for _, sign := range []float64{1, -1} {
				probe.Set(*cur)
				d := chem.Vec3{}
				switch axis {
				case 0:
					d.X = sign * step
				case 1:
					d.Y = sign * step
				case 2:
					d.Z = sign * step
				}
				probe.Translation = probe.Translation.Add(d)
				dock.ClampToBox(probe, box)
				try(&improved)
			}
		}
		axis := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		for _, sign := range []float64{1, -1} {
			probe.Set(*cur)
			probe.Orientation = chem.AxisAngleQuat(axis, sign*step*0.4).Mul(probe.Orientation).Normalize()
			try(&improved)
		}
		for i := 0; i < nt; i++ {
			for _, sign := range []float64{1, -1} {
				probe.Set(*cur)
				probe.Torsions[i] += sign * step * 0.5
				try(&improved)
			}
		}
		if !improved {
			step /= 2
		}
	}
	return curFeb
}

func (fw *fullWalk) runChain(e *Engine, box dock.Box, chain, steps int) mode {
	ws := fw.ws
	r := rand.New(rand.NewSource(e.Config.Seed + int64(chain)*104729))
	cur, cand, best := ws.Get(), ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	defer ws.Put(best)
	dock.RandomPoseInto(r, cur, box, ws.Ligand().NumTorsions())
	curFeb := fw.localOptimize(box, cur, r)
	best.Set(*cur)
	bestFeb := curFeb
	const temperature = 1.2
	for step := 0; step < steps; step++ {
		dock.PerturbInto(r, cand, *cur, 2.0, 0.5)
		dock.ClampToBox(cand, box)
		candFeb := fw.localOptimize(box, cand, r)
		if candFeb < curFeb || r.Float64() < math.Exp((curFeb-candFeb)/temperature) {
			cur, cand = cand, cur
			curFeb = candFeb
			if curFeb < bestFeb {
				best.Set(*cur)
				bestFeb = curFeb
			}
		}
	}
	return mode{pose: best.Clone(), feb: bestFeb}
}

// dockFullWalk is Engine.Dock over the oracle, one chain after another.
func dockFullWalk(t *testing.T, e *Engine, s *Scorer, lig *dock.Ligand) *dock.Result {
	t.Helper()
	box := dock.Box{Center: e.Config.Center, Size: e.Config.Size}
	fw := &fullWalk{s: s, ws: dock.NewWorkspace(lig)}
	modes := make([]mode, e.Config.Exhaustiveness)
	for chain := range modes {
		modes[chain] = fw.runChain(e, box, chain, e.StepsPerRestart)
	}
	res, err := e.result(s, lig, modes)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// runBits flattens everything a run reports — FEB, RMSD, translation,
// quaternion, every torsion — into its bit patterns.
func runBits(r dock.RunResult) []uint64 {
	t, q := r.Pose.Translation, r.Pose.Orientation
	xs := append([]float64{r.FEB, r.RMSD, t.X, t.Y, t.Z, q.W, q.X, q.Y, q.Z}, r.Pose.Torsions...)
	bits := make([]uint64, len(xs))
	for i, x := range xs {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// sameRuns compares two docking results run by run, to the bit.
func sameRuns(t *testing.T, label string, got, want *dock.Result) {
	t.Helper()
	if len(got.Runs) != len(want.Runs) || len(want.Runs) == 0 {
		t.Fatalf("%s: %d runs, full walk %d", label, len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if !slices.Equal(runBits(got.Runs[i]), runBits(want.Runs[i])) {
			t.Fatalf("%s run %d: incremental %+v\nfull walk %+v", label, i+1, got.Runs[i], want.Runs[i])
		}
	}
}

// TestIncrementalMatchesFullWalk is the permanent pin of the epoch-2
// evaluator: docking through it and docking through the full-walk
// oracle give identical results — every mode's FEB, RMSD, translation,
// quaternion and torsions, bit for bit — over the four Table 3 ligands
// and the large pair, many seeds, one worker and two.
func TestIncrementalMatchesFullWalk(t *testing.T) {
	pairs := []struct {
		rec, lig string
		steps    int
	}{
		{"2HHN", "0E6", 3}, {"1S4V", "042", 3}, {"1HUC", "074", 3}, {"1AEC", "0D6", 3},
		{data.LargeReceptorCode, data.LargeLigandCode, 1},
	}
	for _, p := range pairs {
		t.Run(p.rec+"_"+p.lig, func(t *testing.T) {
			rec, lig := setupPair(t, p.rec, p.lig)
			s, err := NewScorer(rec, lig)
			if err != nil {
				t.Fatal(err)
			}
			seeds := int64(8)
			if raceDetector && p.lig == data.LargeLigandCode {
				seeds = 1
			}
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := testConfig(seed * 7919)
				cfg.Exhaustiveness = 2
				want := dockFullWalk(t, &Engine{Config: cfg, StepsPerRestart: p.steps}, s, lig)
				for _, workers := range []int{1, 2} {
					eng := &Engine{Config: cfg, StepsPerRestart: p.steps, Workers: workers}
					got, err := eng.Dock(s, lig)
					if err != nil {
						t.Fatal(err)
					}
					sameRuns(t, p.rec+"/"+p.lig, got, want)
					if got.Stats.AtomSumsReused == 0 || got.Stats.IntraGroupsReused == 0 {
						t.Fatalf("seed %d: nothing reused (%+v): the evaluator is a full walk", cfg.Seed, got.Stats)
					}
				}
			}
		})
	}
}

// TestIncrementalMatchesFullWalkPerProbe drives the evaluator beside
// the oracle through whole local optimizations, probe by probe: each
// probe's value equals Score on freshly materialized coordinates bit
// for bit, whatever mix of accepted and rejected probes came before.
func TestIncrementalMatchesFullWalkPerProbe(t *testing.T) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, p[0], p[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Config: testConfig(31)}
		box := dock.Box{Center: eng.Config.Center, Size: eng.Config.Size}
		ws := dock.NewWorkspace(lig)
		ev := newEvaluator(s, ws)
		probes, accepts := 0, 0
		fw := &fullWalk{s: s, ws: dock.NewWorkspace(lig)}
		fw.probed = func(pose *dock.Pose, want float64) {
			probes++
			if got := ev.probe(pose); !bitsEqual(got, want) {
				t.Fatalf("%s/%s probe %d (after %d accepts): incremental %v (%016x), Score %v (%016x)",
					p[0], p[1], probes, accepts, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		fw.accepted = func() {
			accepts++
			ev.accept()
		}
		r := rand.New(rand.NewSource(31))
		start := fw.ws.Get()
		rounds := 2
		if raceDetector {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			dock.RandomPoseInto(r, start, box, lig.NumTorsions())
			if got, want := ev.reset(start), s.Score(lig.Coords(*start)); !bitsEqual(got, want) {
				t.Fatalf("%s/%s reset: %v, Score %v", p[0], p[1], got, want)
			}
			fw.localOptimize(box, start, r)
		}
		if accepts == 0 || accepts == probes {
			t.Fatalf("%s/%s: %d of %d probes accepted; fixture exercises one branch only", p[0], p[1], accepts, probes)
		}
	}
}

// TestDockStats pins what the counters say about the large pair: the
// compass search is overwhelmingly torsion probes, and those leave
// most atom sums and pair groups to be taken over from the incumbent.
// The counts are per chain and summed in chain order, so they do not
// depend on the worker count.
func TestDockStats(t *testing.T) {
	rec, lig := setupPair(t, data.LargeReceptorCode, data.LargeLigandCode)
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2014)
	cfg.Exhaustiveness = 2
	var first dock.Stats
	for _, workers := range []int{1, 2} {
		res, err := (&Engine{Config: cfg, StepsPerRestart: 1, Workers: workers}).Dock(s, lig)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if workers == 1 {
			first = st
		} else if st != first {
			t.Fatalf("stats depend on the worker count:\n1: %+v\n2: %+v", first, st)
		}
		probes := st.TranslationProbes + st.RotationProbes + st.TorsionProbes
		// One full evaluation opens each local optimization: two per
		// chain at one step per restart.
		if resets := st.Evaluations - probes; resets != int64(cfg.Exhaustiveness)*2 {
			t.Errorf("%d evaluations for %d probes: %d opening evaluations, want %d", st.Evaluations, probes, resets, cfg.Exhaustiveness*2)
		}
		if st.TranslationProbes != 3*st.RotationProbes {
			t.Errorf("translation probes %d, rotation probes %d: want 6 and 2 per pass", st.TranslationProbes, st.RotationProbes)
		}
		if share := float64(st.TorsionProbes) / float64(probes); share < 0.85 || share > 0.95 {
			t.Errorf("torsion probes are %.0f%% of %d probes, want ≈ 90%%", share*100, probes)
		}
		heavy := int64(lig.Mol.HeavyAtomCount())
		if sums := st.AtomSumsScored + st.AtomSumsReused; sums != st.Evaluations*heavy {
			t.Errorf("%d atom sums over %d evaluations of %d heavy atoms", sums, st.Evaluations, heavy)
		}
		if reuse := float64(st.AtomSumsReused) / float64(st.AtomSumsScored+st.AtomSumsReused); reuse < 0.55 || reuse > 0.85 {
			t.Errorf("%.0f%% of atom sums reused, want ≈ 70%%", reuse*100)
		}
		if groups := st.IntraGroupsScored + st.IntraGroupsReused; groups != st.Evaluations*int64(len(s.groups)) {
			t.Errorf("%d group sums over %d evaluations of %d groups", groups, st.Evaluations, len(s.groups))
		}
		if st.IntraGroupsReused == 0 {
			t.Error("no intramolecular group sum reused")
		}
	}
}
