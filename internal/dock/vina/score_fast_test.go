package vina

import (
	"math"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dock"
)

// TestVinaFastPathBound pins the published envelope of the fast path
// at 2× headroom: over randomized poses (including clashed ones) on
// two receptor/ligand pairs, |ScoreBatchFast − Score| stays within
// HALF of FastAbsTol + FastRelTol·|Score|. Callers that screen on the
// fast value assume the full envelope; measuring at half keeps an
// excursion margin between what we observe and what they rely on.
func TestVinaFastPathBound(t *testing.T) {
	for _, pair := range [][2]string{{"2HHN", "0E6"}, {"1S4V", "042"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		rec, lig := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		poses := randomPoses(lig, 200, 23)
		b := dock.NewBatch(lig, 16)
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		fast := make([]float64, len(poses))
		s.ScoreBatchFast(b, fast)
		worst := 0.0
		for k, p := range poses {
			exact := s.Score(ws.Coords(p))
			envelope := 0.5 * FastMargin(exact)
			err := math.Abs(fast[k] - exact)
			if r := err / envelope; r > worst {
				worst = r
			}
			if err > envelope {
				t.Errorf("%s/%s pose %d: |fast-exact| = |%.9g - %.9g| = %.3g beyond half-envelope %.3g",
					pair[0], pair[1], k, fast[k], exact, err, envelope)
			}
		}
		t.Logf("%s/%s: worst |fast-exact| at %.2f%% of the half-envelope", pair[0], pair[1], worst*100)
	}
}

// TestVinaFastPathBatchInvariant pins that a pose's fast value is a
// pure function of the pose: scoring the same poses in one batch and
// through batch windows of different sizes, down to single poses,
// yields bit-identical values (==, no epsilon).
func TestVinaFastPathBatchInvariant(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses := randomPoses(lig, 64, 41)
	ref := make([]float64, len(poses))
	b := dock.NewBatch(lig, 16)
	for _, p := range poses {
		b.Append(p)
	}
	s.ScoreBatchFast(b, ref)
	for _, window := range []int{1, 7, 16} {
		for base := 0; base < len(poses); base += window {
			end := base + window
			if end > len(poses) {
				end = len(poses)
			}
			b.Reset()
			for _, p := range poses[base:end] {
				b.Append(p)
			}
			out := make([]float64, end-base)
			s.ScoreBatchFast(b, out)
			for k, v := range out {
				if v != ref[base+k] {
					t.Fatalf("window %d slot %d: %.17g != whole-batch %.17g",
						window, base+k, v, ref[base+k])
				}
			}
		}
	}
}

// TestVinaFastPathZeroAllocs pins the steady-state allocation contract
// of the fast loop: once warm, refill + ScoreBatchFast allocate
// nothing.
func TestVinaFastPathZeroAllocs(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses := randomPoses(lig, 50, 7)
	b := dock.NewBatch(lig, 16)
	out := make([]float64, len(poses))
	run := func() {
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		s.ScoreBatchFast(b, out)
	}
	run() // warm the buffers (and the lazy fast state) to the high-water mark
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state fast loop allocates %.1f/op, want 0", allocs)
	}
}

// TestVinaFastPathConcurrent exercises the lazy sync.Once build under
// -race: many goroutines make their FIRST fast calls on a shared
// scorer concurrently, each with its own batch, and all must see
// the same values.
func TestVinaFastPathConcurrent(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses := randomPoses(lig, 16, 5)
	want := make([]float64, len(poses))
	{
		probe, _ := NewScorer(rec, lig)
		b := dock.NewBatch(lig, 16)
		for _, p := range poses {
			b.Append(p)
		}
		probe.ScoreBatchFast(b, want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := dock.NewBatch(lig, 16)
			for _, p := range poses {
				b.Append(p)
			}
			out := make([]float64, len(poses))
			s.ScoreBatchFast(b, out)
			for k, v := range out {
				if v != want[k] {
					t.Errorf("slot %d: concurrent %.17g != sequential %.17g", k, v, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkScoreBatchFast50 measures the fast path at a 50-pose
// window; compare with BenchmarkScoreBatch50 for the per-pose speedup
// of the fast kernel.
func BenchmarkScoreBatchFast50(bm *testing.B) {
	rec, lig := setupPair(bm, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		bm.Fatal(err)
	}
	poses := randomPoses(lig, 50, 7)
	b := dock.NewBatch(lig, 16)
	out := make([]float64, len(poses))
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		s.ScoreBatchFast(b, out)
	}
}
