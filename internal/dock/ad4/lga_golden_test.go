package ad4

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/prep"
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
// digests were re-recorded at trajectory epoch 2 (the root-frame pose
// model) and at the octave-indexed radial tables. 9XLR/XL1's seed-77
// digest moved once more when mutation began wrapping torsions with
// dock.WrapAngle: one Cauchy draw there lands beyond ±3π, which the
// remainder now reduces where whole-turn subtraction rounded
// differently. All four moved at the tree of frames
// (dock.Ligand.CoordsInto), which places atoms to within rounding of
// the sequential torsion walk, and again when the AutoGrid lattices
// became float32, which moves every interpolated grid energy by
// rounding.
func TestDockTrajectoryGolden(t *testing.T) {
	skipIfFusedMultiplyAdd(t)
	seeds := [2]int64{77, 2014}
	pairs := []struct {
		rec, lig string
		want     [2]string // digest per seed
	}{
		{"2HHN", "0E6", [2]string{"061b96f33fc99458", "830e04f115fcdc3d"}},
		{data.LargeReceptorCode, data.LargeLigandCode, [2]string{"b39fd6819dfaff7c", "76e2f56e802fdb6b"}},
	}
	for _, p := range pairs {
		maps, lig, box := setupPair(t, p.rec, p.lig)
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			params := prep.DefaultDPF("l", "f", seed)
			params.Runs, params.PopSize, params.Gens, params.Evals = 3, 14, 5, 2500
			eng := &Engine{Params: params, Box: box, Workers: 1}
			res, err := eng.Dock(s, lig)
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", p.rec, p.lig, seed, err)
			}
			if len(res.Runs) != params.Runs {
				t.Fatalf("%s/%s seed %d: %d runs, want %d", p.rec, p.lig, seed, len(res.Runs), params.Runs)
			}
			if got := resultDigest(res); got != p.want[i] {
				t.Errorf("%s/%s seed %d: digest %s, want %s", p.rec, p.lig, seed, got, p.want[i])
			}
		}
	}
}
