package ad4

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// goldenPoses is the fixed population TestScoreGolden folds: the
// box-wide randomPoses spread plus as many small perturbations of the
// pocket-centred input conformation (the synthetic stand-in for the
// crystal pose), where every ligand atom reads the grid interior.
func goldenPoses(lig *dock.Ligand, n int, seed int64) []dock.Pose {
	poses := randomPoses(lig, n, seed)
	r := rand.New(rand.NewSource(seed + 1))
	centre := dock.Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())}
	for i := 0; i < n; i++ {
		poses = append(poses, dock.Perturb(r, centre, 1.0, 0.3))
	}
	return poses
}

// TestScoreGolden pins per-pose Score and ReportedFEB to the bit. The
// digests were re-recorded at trajectory epoch 2, when the coordinates
// AD4 is handed changed (the root-frame pose model — no re-centring
// after the torsions), and again when the radial tables took their
// octave-indexed geometry and fmath's exponentials, and at the tree
// of frames that replaced the sequential torsion walk, and when the
// AutoGrid lattices became float32 (each node's float64 sum rounded
// once). This pins the float64 addition sequence, the table nodes and
// the lattice values.
func TestScoreGolden(t *testing.T) {
	skipIfFusedMultiplyAdd(t)
	pairs := []struct {
		rec, lig string
		want     string
	}{
		{"2HHN", "0E6", "91bccb4428475a17"},
		{data.LargeReceptorCode, data.LargeLigandCode, "32b28159cb4c1d8b"},
	}
	for _, p := range pairs {
		maps, lig, _ := setupPair(t, p.rec, p.lig)
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		h := fnv.New64a()
		var b [8]byte
		f := func(x float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for _, pose := range goldenPoses(lig, 48, 2014) {
			coords := ws.Coords(pose)
			f(s.Score(coords))
			f(s.ReportedFEB(coords))
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != p.want {
			t.Errorf("%s/%s: digest %s, want %s", p.rec, p.lig, got, p.want)
		}
	}
}
