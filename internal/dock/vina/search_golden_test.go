package vina

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/dock"
)

// resultDigest folds a docking result's run indices, energies, RMSDs
// and poses bit for bit into an FNV-64a digest — the same fold as
// bench/pair.go hashResult.
func resultDigest(r *dock.Result) string {
	h := fnv.New64a()
	var b [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, run := range r.Runs {
		f(float64(run.Run))
		f(run.FEB)
		f(run.RMSD)
		t, q := run.Pose.Translation, run.Pose.Orientation
		for _, x := range []float64{t.X, t.Y, t.Z, q.W, q.X, q.Y, q.Z} {
			f(x)
		}
		for _, x := range run.Pose.Torsions {
			f(x)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// skipIfFusedMultiplyAdd skips a bit-level golden on the architectures
// where the Go compiler fuses x*y+z into one rounding: the digests
// were recorded on amd64, which rounds twice.
func skipIfFusedMultiplyAdd(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "ppc64", "ppc64le", "s390x", "riscv64", "loong64":
		t.Skipf("golden digests assume unfused multiply-add; GOARCH=%s fuses", runtime.GOARCH)
	}
}

// TestDockTrajectoryGolden pins the whole search trajectory. The
// digests were re-recorded once at trajectory epoch 2, from the search
// that called Score(ws.Coords(probe)) on every probe, before the
// incremental evaluator existed — so the evaluator that replaced that
// full walk is proven to follow the same trajectory to the bit
// (TestIncrementalMatchesFullWalk keeps comparing the two).
func TestDockTrajectoryGolden(t *testing.T) {
	skipIfFusedMultiplyAdd(t)
	seeds := [2]int64{19, 2014}
	pairs := []struct {
		rec, lig string
		steps    int
		want     [2]string // digest per seed
	}{
		{"2HHN", "0E6", 6, [2]string{"7be6c92066591b2a", "d2c24ea830c0e993"}},
		{data.LargeReceptorCode, data.LargeLigandCode, 1, [2]string{"9af3c2ce48dfb8a1", "0476f2ebc68ba004"}},
	}
	for _, p := range pairs {
		rec, lig := setupPair(t, p.rec, p.lig)
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			cfg := testConfig(seed)
			cfg.Exhaustiveness = 2
			eng := &Engine{Config: cfg, StepsPerRestart: p.steps, Workers: 1}
			res, err := eng.Dock(s, lig)
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", p.rec, p.lig, seed, err)
			}
			if len(res.Runs) == 0 {
				t.Fatalf("%s/%s seed %d: no modes", p.rec, p.lig, seed)
			}
			if got := resultDigest(res); got != p.want[i] {
				t.Errorf("%s/%s seed %d: digest %s, want %s", p.rec, p.lig, seed, got, p.want[i])
			}
		}
	}
}
