package ad4

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// windowPoses builds a search-shaped window population: poses[0] is a
// random incumbent and the rest are Solis-Wets-scale perturbations of
// it. The returned bound is the actual maximum per-atom displacement
// from the incumbent's coordinates (plus an epsilon), so every pose is
// admissible by construction.
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

// windowPairs sweeps the reference pair and the L2-overflow pair so the
// shared-gather contract is pinned on both workload shapes. On the
// large pair part of the ligand sits outside the 20³ test grid; the
// out-of-box penalty is computed identically on every path, so the
// bitwise contracts hold regardless.
var windowPairs = [][2]string{
	{"2HHN", "0E6"},
	{data.LargeReceptorCode, data.LargeLigandCode},
}

// TestWindowScoreBatchMatchesPerPose pins the tentpole 0-ULP contract
// for the AD4 engine: with an active window whose bound holds, the
// shared-pruning ScoreBatch equals the per-pose exact Score bit for
// bit across batch sizes — on the reference pair and the large pair.
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
			b.SetWindow(poses[0])
			b.SetWindowBound(bound)
			b.Reset()
			for _, p := range poses {
				b.Append(p)
			}
			for k, ok := range b.WindowValid() {
				if !ok {
					t.Fatalf("%s batch %d: pose %d rejected despite actual-displacement bound", pair[1], bs, k)
				}
			}
			out := make([]float64, bs)
			s.ScoreBatch(b, out)
			for k, p := range poses {
				if want := s.Score(ws.Coords(p)); out[k] != want {
					t.Fatalf("%s/%s batch %d slot %d: windowed ScoreBatch %.17g != Score %.17g",
						pair[0], pair[1], bs, k, out[k], want)
				}
			}
			b.ClearWindow()
		}
	}
}

// TestWindowScoreBatchFastInvariant pins that the windowed fast values
// are bit-identical to the windowless fast values across batch sizes
// and both workloads, and stay inside the screening envelope. On the
// large pair this exercises split fast mode under a window.
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
			b.Reset()
			for _, p := range poses {
				b.Append(p)
			}
			plain := make([]float64, bs)
			s.ScoreBatchFast(b, plain)
			b.SetWindow(poses[0])
			b.SetWindowBound(bound)
			b.Reset()
			for _, p := range poses {
				b.Append(p)
			}
			win := make([]float64, bs)
			s.ScoreBatchFast(b, win)
			for k, p := range poses {
				if win[k] != plain[k] {
					t.Fatalf("%s batch %d slot %d: windowed fast %.17g != windowless fast %.17g",
						pair[1], bs, k, win[k], plain[k])
				}
				exact := s.Score(ws.Coords(p))
				if err := math.Abs(win[k] - exact); err > 0.5*FastMargin(exact) {
					t.Fatalf("%s batch %d slot %d: |fast-exact| = %.3g beyond half-envelope %.3g",
						pair[1], bs, k, err, 0.5*FastMargin(exact))
				}
			}
			b.ClearWindow()
		}
	}
}

// TestSplitFastModeOnLargePair pins the memory-pressure gate: the
// many-type large ligand must push the fast intra bank past the
// full-matrix budget and trip split mode (radial-only deduped banks +
// per-pair Coulomb), while the reference pair stays on the dense path.
func TestSplitFastModeOnLargePair(t *testing.T) {
	maps, lig, _ := setupPair(t, data.LargeReceptorCode, data.LargeLigandCode)
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	if f := s.ensureFast(); !f.split {
		t.Error("large pair did not trip split fast mode")
	}
	maps2, lig2, _ := setupPair(t, "2HHN", "0E6")
	s2, err := NewScorer(maps2, lig2)
	if err != nil {
		t.Fatal(err)
	}
	if f := s2.ensureFast(); f.split {
		t.Error("reference pair unexpectedly on split fast mode")
	}
}

// TestWindowBoundViolationFallsBack plants poses that escape a
// deliberately understated bound and pins the fallback contract: the
// escapes are flagged invalid, routed through the per-pose exact
// path, and the whole batch stays byte-identical to per-pose Score in
// both precision modes.
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
	poses = append(poses, esc)
	near := poses[0].Clone()
	near.Translation = near.Translation.Add(chem.V(bound*1.5, 0, 0))
	poses = append(poses, near)
	b := dock.NewBatch(lig, 16)
	b.SetWindow(poses[0])
	b.SetWindowBound(bound)
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
	valid := b.WindowValid()
	nInvalid := 0
	for _, ok := range valid {
		if !ok {
			nInvalid++
		}
	}
	if valid[len(poses)-1] || valid[len(poses)-2] || nInvalid != 2 {
		t.Fatalf("expected exactly the 2 planted escapes invalid, got %v", valid)
	}
	out := make([]float64, len(poses))
	s.ScoreBatch(b, out)
	for k, p := range poses {
		if want := s.Score(ws.Coords(p)); out[k] != want {
			t.Fatalf("slot %d (valid=%v): fallback ScoreBatch %.17g != Score %.17g",
				k, valid[k], out[k], want)
		}
	}
	fastWin := make([]float64, len(poses))
	s.ScoreBatchFast(b, fastWin)
	b.ClearWindow()
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
	fastPlain := make([]float64, len(poses))
	s.ScoreBatchFast(b, fastPlain)
	for k := range poses {
		if fastWin[k] != fastPlain[k] {
			t.Fatalf("slot %d: fast under violated window %.17g != windowless fast %.17g",
				k, fastWin[k], fastPlain[k])
		}
	}
}

// benchWindowBatch measures the full windowed loop (window setup,
// refill, kernel) on the named pair.
func benchWindowBatch(b *testing.B, recCode, ligCode string, fast bool) {
	maps, lig, _ := setupPair(b, recCode, ligCode)
	s, err := NewScorer(maps, lig)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 50
	poses, bound := windowPoses(lig, batch, 7)
	bt := dock.NewBatch(lig, 16)
	out := make([]float64, batch)
	kernel := s.ScoreBatch
	if fast {
		kernel = s.ScoreBatchFast
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.SetWindow(poses[0])
		bt.SetWindowBound(bound)
		bt.Reset()
		for _, p := range poses {
			bt.Append(p)
		}
		kernel(bt, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pose")
	bt.ClearWindow()
}

func BenchmarkWindowScoreBatchLarge50(b *testing.B) {
	benchWindowBatch(b, data.LargeReceptorCode, data.LargeLigandCode, false)
}

func BenchmarkWindowScoreBatchFastLarge50(b *testing.B) {
	benchWindowBatch(b, data.LargeReceptorCode, data.LargeLigandCode, true)
}

// TestWindowScoreBatchZeroAllocs pins the steady-state allocation
// contract of the full windowed loop in the AD4 engine.
func TestWindowScoreBatchZeroAllocs(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses, bound := windowPoses(lig, 50, 7)
	b := dock.NewBatch(lig, 16)
	out := make([]float64, len(poses))
	run := func() {
		b.SetWindow(poses[0])
		b.SetWindowBound(bound)
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		s.ScoreBatch(b, out)
		s.ScoreBatchFast(b, out)
	}
	run() // warm caches to the high-water mark
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state windowed loop allocates %.1f/op, want 0", allocs)
	}
	b.ClearWindow()
}
