package vina

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// goldenPoses is the fixed population TestScoreGolden folds: the
// box-wide randomPoses spread plus as many small perturbations of the
// pocket-centred input conformation (the synthetic stand-in for the
// crystal pose), where most ligand atoms have in-cutoff receptor hits.
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
// digests were re-recorded once at trajectory epoch 2 — the root-frame
// pose model (no re-centring after the torsions) and the reusable
// summation order (per-atom inter sums, per-fragment-pair intra sums)
// — with ScoreBatch == Score holding unedited across the change, so
// the batch contract tests are not the sole witness of the hit order
// and the float64 addition sequence from here on.
func TestScoreGolden(t *testing.T) {
	skipIfFusedMultiplyAdd(t)
	pairs := []struct {
		rec, lig string
		want     string
	}{
		{"2HHN", "0E6", "c4fd8e363a01fdab"},
		{data.LargeReceptorCode, data.LargeLigandCode, "6562e8a96cc5e465"},
	}
	for _, p := range pairs {
		rec, lig := setupPair(t, p.rec, p.lig)
		s, err := NewScorer(rec, lig)
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
		hits := 0
		for _, pose := range goldenPoses(lig, 48, 2014) {
			coords := ws.Coords(pose)
			feb := s.ReportedFEB(coords)
			f(s.Score(coords))
			f(feb)
			if feb != 0 {
				hits++
			}
		}
		if hits < 48 {
			t.Fatalf("%s/%s: only %d of 96 poses touch the receptor", p.rec, p.lig, hits)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != p.want {
			t.Errorf("%s/%s: digest %s, want %s", p.rec, p.lig, got, p.want)
		}
	}
}

// TestSharedReceptorIndex pins the split NewScorer is composed of: two
// ligands scored concurrently through one ReceptorIndex (the campaign
// store's shape; run under -race) produce the same bits as two
// scorers that each indexed the receptor privately.
func TestSharedReceptorIndex(t *testing.T) {
	digest := func(s *Scorer) uint64 {
		ws := dock.NewWorkspace(s.Lig)
		h := fnv.New64a()
		var b [8]byte
		for _, pose := range goldenPoses(s.Lig, 24, 2014) {
			coords := ws.Coords(pose)
			for _, x := range []float64{s.Score(coords), s.ReportedFEB(coords)} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	rec, ligA := setupPair(t, "2HHN", "0E6")
	_, ligB := setupPair(t, "2HHN", "042")
	ix, err := NewReceptorIndex(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]uint64
	var wg sync.WaitGroup
	for i, lig := range []*dock.Ligand{ligA, ligB} {
		s, err := ix.NewScorer(lig)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = digest(s)
		}(i)
	}
	wg.Wait()
	for i, lig := range []*dock.Ligand{ligA, ligB} {
		private, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		if private.ReceptorIndex == ix {
			t.Fatal("NewScorer reused the shared index")
		}
		if want := digest(private); got[i] != want {
			t.Errorf("%s: shared-index digest %016x, private %016x", lig.Mol.Name, got[i], want)
		}
	}
}
