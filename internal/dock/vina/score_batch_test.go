package vina

import (
	"sync"
	"testing"

	"repro/internal/dock"
)

// batchSizes is the property-test sweep from the issue: empty batch,
// single pose, odd size (exercises the unpaired-tail path), and a
// GA-population-scale batch.
var batchSizes = []int{0, 1, 7, 64}

// TestScoreBatchMatchesScore pins the 0-ULP contract: for random
// ligands and poses, every batched affinity equals the sequential
// Score of the same pose exactly (==, no epsilon).
func TestScoreBatchMatchesScore(t *testing.T) {
	for _, pair := range [][2]string{{"2HHN", "0E6"}, {"1S4V", "042"}} {
		rec, lig := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		b := dock.NewBatch(lig, 16)
		for _, bs := range batchSizes {
			poses := randomPoses(lig, bs, int64(100+bs))
			b.Reset()
			for _, p := range poses {
				b.Append(p)
			}
			out := make([]float64, bs)
			s.ScoreBatch(b, out)
			for k, p := range poses {
				want := s.Score(ws.Coords(p))
				if out[k] != want {
					t.Fatalf("%s/%s batch %d slot %d: ScoreBatch %.17g != Score %.17g",
						pair[0], pair[1], bs, k, out[k], want)
				}
			}
		}
	}
}

// TestScoreBatchZeroAllocs pins the steady-state allocation contract
// of the full batch loop: refill the batch from poses, score it, read
// the results — zero heap allocations once warm.
func TestScoreBatchZeroAllocs(t *testing.T) {
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
		s.ScoreBatch(b, out)
	}
	run() // warm the buffers to the high-water mark
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state ScoreBatch loop allocates %.1f/op, want 0", allocs)
	}
}

// TestScoreBatchConcurrent shares one Scorer across concurrent batch
// callers under -race: the scorer must be read-only during ScoreBatch,
// with all mutable state in the per-caller batch and output.
func TestScoreBatchConcurrent(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
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
			for iter := 0; iter < 20; iter++ {
				b.Reset()
				for _, p := range poses {
					b.Append(p)
				}
				s.ScoreBatch(b, out)
				for i := range want {
					if out[i] != want[i] {
						t.Errorf("concurrent ScoreBatch diverged at slot %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func benchScoreBatch(b *testing.B, batch int) {
	rec, lig := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		b.Fatal(err)
	}
	poses := randomPoses(lig, batch, 3)
	bt := dock.NewBatch(lig, 16)
	bt.Reset()
	for _, p := range poses {
		bt.Append(p)
	}
	out := make([]float64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreBatch(bt, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pose")
}

func BenchmarkScoreBatch16(b *testing.B)  { benchScoreBatch(b, 16) }
func BenchmarkScoreBatch50(b *testing.B)  { benchScoreBatch(b, 50) }
func BenchmarkScoreBatch150(b *testing.B) { benchScoreBatch(b, 150) }
