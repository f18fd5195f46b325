package ad4

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// The batch entry points are stand-ins over per-pose Score. Each test
// below pins one face of that: ScoreBatch and ScoreBatchFast, with and
// without a window (whose setters are inert), across Reset, capacity
// growth and goroutines, equal Score of every pose by Float64bits, and
// a warm Reset/Append/score cycle allocates nothing.

// batchPairs is 2HHN with several dataset ligands plus the L2-overflow
// pair.
var batchPairs = [][2]string{
	{"2HHN", "0E6"}, {"2HHN", "042"}, {"2HHN", "074"}, {"2HHN", "0D6"},
	{data.LargeReceptorCode, data.LargeLigandCode},
}

// windowPairs is the reference pair and the L2-overflow pair. On the
// large pair part of the ligand sits outside the 20³ test grid, where
// Score's out-of-box penalty applies.
var windowPairs = [][2]string{
	{"2HHN", "0E6"},
	{data.LargeReceptorCode, data.LargeLigandCode},
}

// windowPoses builds a search-shaped window population: poses[0] is a
// random incumbent and the rest are Solis-Wets-scale perturbations of
// it. The returned bound is the actual maximum per-atom displacement
// from the incumbent's coordinates (plus an epsilon).
func windowPoses(lig *dock.Ligand, n int, seed int64) ([]dock.Pose, float64) {
	r := rand.New(rand.NewSource(seed))
	poses := make([]dock.Pose, n)
	poses[0] = dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
	dock.RandomPoseInto(r, &poses[0], dock.Box{Size: chem.V(10, 10, 10)}, lig.NumTorsions())
	for i := 1; i < n; i++ {
		poses[i] = dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
		const rho = 0.15
		dock.PerturbInto(r, &poses[i], poses[0], rho*0.5, rho*0.15)
	}
	anchor := lig.Coords(poses[0])
	d2max := 0.0
	for i := 1; i < n; i++ {
		c := lig.Coords(poses[i])
		for k := range c {
			if d2 := c[k].Dist2(anchor[k]); d2 > d2max {
				d2max = d2
			}
		}
	}
	return poses, math.Sqrt(d2max) + 1e-9
}

// fillBatch resets b, sets the window on poses[0] with the bound when
// bound > 0 (clearing it otherwise), and appends poses.
func fillBatch(b *dock.Batch, poses []dock.Pose, bound float64) {
	b.ClearWindow()
	if bound > 0 && len(poses) > 0 {
		b.SetWindow(poses[0])
		b.SetWindowBound(bound)
	}
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
}

// requireScores fails unless out[k] equals Score of poses[k] by
// Float64bits for every k.
func requireScores(t *testing.T, s *Scorer, ws *dock.Workspace, label string, poses []dock.Pose, out []float64) {
	t.Helper()
	for k, p := range poses {
		if want := s.Score(ws.Coords(p)); math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("%s slot %d: %.17g != Score %.17g", label, k, out[k], want)
		}
	}
}

// requireZeroAllocs fails unless a warm Reset/Append/score cycle over
// 50 poses allocates nothing; windowed sets a window on the first pose
// with its bound.
func requireZeroAllocs(t *testing.T, windowed bool, score func(*Scorer, *dock.Batch, []float64)) {
	t.Helper()
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses, bound := randomPoses(lig, 50, 7), 0.0
	if windowed {
		poses, bound = windowPoses(lig, 50, 7)
	}
	b := dock.NewBatch(lig, 16)
	out := make([]float64, len(poses))
	run := func() {
		fillBatch(b, poses, bound)
		score(s, b, out)
	}
	run() // warm the buffers to the high-water mark
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm loop (windowed %v) allocates %.1f/op, want 0", windowed, allocs)
	}
}

// requireConcurrent shares one Scorer across goroutines, each with its
// own batch, and fails unless every goroutine's kernel output equals
// the sequential Score of each pose.
func requireConcurrent(t *testing.T, score func(*Scorer, *dock.Batch, []float64)) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	refWS := dock.NewWorkspace(lig)
	poses := randomPoses(lig, 16, 3)
	want := make([]float64, len(poses))
	for i, p := range poses {
		want[i] = s.Score(refWS.Coords(p))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := dock.NewBatch(lig, 16)
			out := make([]float64, len(poses))
			for iter := 0; iter < 5; iter++ {
				fillBatch(b, poses, 0)
				score(s, b, out)
				for i := range want {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Errorf("concurrent slot %d: %.17g != Score %.17g", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScoreBatchMatchesScore: on 2HHN with several dataset ligands and
// on the L2-overflow pair, ScoreBatch equals Score bit for bit across
// Reset and capacity growth (an empty batch, one pose, an odd size, a
// size past the initial capacity).
func TestScoreBatchMatchesScore(t *testing.T) {
	for _, pair := range batchPairs {
		maps, lig, _ := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		b := dock.NewBatch(lig, 4)
		out := make([]float64, 33)
		for _, n := range []int{0, 1, 7, 33} {
			poses := randomPoses(lig, n, int64(100+n))
			fillBatch(b, poses, 0)
			s.ScoreBatch(b, out[:n])
			requireScores(t, s, ws, pair[0]+"/"+pair[1], poses, out)
		}
	}
}

// TestScoreBatchZeroAllocs: a warm ScoreBatch loop allocates nothing.
func TestScoreBatchZeroAllocs(t *testing.T) { requireZeroAllocs(t, false, (*Scorer).ScoreBatch) }

// TestScoreBatchConcurrent: one Scorer serves concurrent ScoreBatch
// callers, each equal to Score.
func TestScoreBatchConcurrent(t *testing.T) { requireConcurrent(t, (*Scorer).ScoreBatch) }

// TestAD4FastPathBound: the tolerance envelope of the retired fast
// path is now zero — ScoreBatchFast equals Score bit for bit over
// random (including clashed) poses on every batch pair.
func TestAD4FastPathBound(t *testing.T) {
	for _, pair := range batchPairs {
		maps, lig, _ := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		poses := randomPoses(lig, 100, 23)
		b := dock.NewBatch(lig, 16)
		fillBatch(b, poses, 0)
		fast := make([]float64, len(poses))
		s.ScoreBatchFast(b, fast)
		requireScores(t, s, dock.NewWorkspace(lig), pair[0]+"/"+pair[1]+" ScoreBatchFast", poses, fast)
	}
}

// TestAD4FastPathBatchInvariant: a pose's ScoreBatchFast value does
// not depend on the batch it is scored in, down to single poses.
func TestAD4FastPathBatchInvariant(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses := randomPoses(lig, 64, 41)
	ref := make([]float64, len(poses))
	b := dock.NewBatch(lig, 16)
	fillBatch(b, poses, 0)
	s.ScoreBatchFast(b, ref)
	requireScores(t, s, dock.NewWorkspace(lig), "whole batch", poses, ref)
	for _, window := range []int{1, 7, 16} {
		for base := 0; base < len(poses); base += window {
			end := min(base+window, len(poses))
			fillBatch(b, poses[base:end], 0)
			out := make([]float64, end-base)
			s.ScoreBatchFast(b, out)
			for k, v := range out {
				if math.Float64bits(v) != math.Float64bits(ref[base+k]) {
					t.Fatalf("window %d slot %d: %.17g != whole-batch %.17g", window, base+k, v, ref[base+k])
				}
			}
		}
	}
}

// TestAD4FastPathZeroAllocs: a warm ScoreBatchFast loop allocates
// nothing.
func TestAD4FastPathZeroAllocs(t *testing.T) { requireZeroAllocs(t, false, (*Scorer).ScoreBatchFast) }

// TestAD4FastPathConcurrent: one Scorer serves concurrent first
// ScoreBatchFast calls, each equal to Score.
func TestAD4FastPathConcurrent(t *testing.T) { requireConcurrent(t, (*Scorer).ScoreBatchFast) }

// TestWindowScoreBatchMatchesPerPose: under a window whose bound holds,
// ScoreBatch equals Score bit for bit across batch sizes on the
// reference and the large pair.
func TestWindowScoreBatchMatchesPerPose(t *testing.T) {
	for _, pair := range windowPairs {
		maps, lig, _ := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		b := dock.NewBatch(lig, 16)
		for _, bs := range []int{1, 7, 64} {
			poses, bound := windowPoses(lig, bs, int64(300+bs))
			fillBatch(b, poses, bound)
			out := make([]float64, bs)
			s.ScoreBatch(b, out)
			requireScores(t, s, ws, pair[0]+"/"+pair[1]+" windowed ScoreBatch", poses, out)
		}
	}
}

// TestWindowScoreBatchFastInvariant: under a window, ScoreBatchFast
// equals the windowless ScoreBatchFast and Score bit for bit.
func TestWindowScoreBatchFastInvariant(t *testing.T) {
	for _, pair := range windowPairs {
		maps, lig, _ := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		b := dock.NewBatch(lig, 16)
		for _, bs := range []int{1, 7, 64} {
			poses, bound := windowPoses(lig, bs, int64(400+bs))
			plain := make([]float64, bs)
			fillBatch(b, poses, 0)
			s.ScoreBatchFast(b, plain)
			win := make([]float64, bs)
			fillBatch(b, poses, bound)
			s.ScoreBatchFast(b, win)
			for k := range poses {
				if math.Float64bits(win[k]) != math.Float64bits(plain[k]) {
					t.Fatalf("%s batch %d slot %d: windowed fast %.17g != windowless fast %.17g",
						pair[1], bs, k, win[k], plain[k])
				}
			}
			requireScores(t, s, ws, pair[0]+"/"+pair[1]+" windowed ScoreBatchFast", poses, win)
		}
	}
}

// TestWindowBoundViolationFallsBack: poses that escape an understated
// window bound — a gross and a marginal translation — score exactly as
// Score does through both kernels, as do the admissible ones.
func TestWindowBoundViolationFallsBack(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	ws := dock.NewWorkspace(lig)
	poses, bound := windowPoses(lig, 12, 17)
	esc := poses[0].Clone()
	esc.Translation = esc.Translation.Add(chem.V(5, 0, 0))
	near := poses[0].Clone()
	near.Translation = near.Translation.Add(chem.V(bound*1.5, 0, 0))
	poses = append(poses, esc, near)
	b := dock.NewBatch(lig, 16)
	out := make([]float64, len(poses))
	fillBatch(b, poses, bound)
	s.ScoreBatch(b, out)
	requireScores(t, s, ws, "violated window ScoreBatch", poses, out)
	s.ScoreBatchFast(b, out)
	requireScores(t, s, ws, "violated window ScoreBatchFast", poses, out)
}

// TestWindowScoreBatchZeroAllocs: a warm windowed loop through both
// kernels allocates nothing.
func TestWindowScoreBatchZeroAllocs(t *testing.T) {
	requireZeroAllocs(t, true, func(s *Scorer, b *dock.Batch, out []float64) {
		s.ScoreBatch(b, out)
		s.ScoreBatchFast(b, out)
	})
}
