package vina

import (
	"math"
	"slices"
	"sort"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// Pinned error bound of the fast path: for every pose,
// |ScoreBatchFast − Score| ≤ FastAbsTol + FastRelTol·|Score|.
// The components are the coarser fast-table interpolation, the float32
// node rounding, the float32 per-pose accumulation, and the rigid-pair
// fold (same-unit distances move by ~1e-12 Å² of rotation round-off).
// The absolute term is sized to absorb the deep-clash regime
// (TestFastAtBound's r² < 0.01 Å² band): a random pose can drive an
// atom pair to near-zero separation, where each overlapping pair
// contributes up to ~0.02 + 5e-3·|pair| of table error but also ≥ +10
// to the exact energy — so either the relative term covers it, or (if
// attractive terms cancel the clash) the absolute term must, which is
// why FastAbsTol is far wider than the smooth-regime table envelope.
// The dense+randomized sweep in TestVinaFastPathBound measures the
// worst case at ≤ half of this envelope.
const (
	FastAbsTol = 0.08 // kcal/mol
	FastRelTol = 5e-3
)

// FastMargin is the screening slack at incumbent energy e: a candidate
// whose fast score exceeds e + FastMargin(e) provably cannot beat e
// exactly (FastRelTol < 1 makes e ↦ e + FastRelTol·|e| monotone).
func FastMargin(e float64) float64 {
	return FastAbsTol + FastRelTol*math.Abs(e)
}

// fastIntraPair is one cross-unit intramolecular pair of the fast
// path: the atom indices and its table's offset in the merged bank.
type fastIntraPair struct {
	i, j int32
	off  int32
}

// fastState is the lazily built precomputation of the fast path: the
// merged float32 table bank (Scorer's ~40 distinct 164 KB inter+intra
// tables subsample to a ~1.4 MB shared bank), per-ligand-atom offset
// rows replacing the node-array rows, the cross-unit intramolecular
// pairs sorted by bank offset, and the folded same-unit constant.
type fastState struct {
	bank       []float32
	interOffs  [][]int32 // per ligand atom: receptor type index → bank offset
	intraVar   []fastIntraPair
	rigidConst float64 // exact-table intra energy of the same-unit pairs
}

// cutBoundaryEps guards the rigid fold: a same-unit pair whose base
// separation sits within this band of the cutoff stays per-pose, so
// rotation round-off can never flip its in-cutoff decision against the
// folded constant.
const cutBoundaryEps = 1e-6

func (s *Scorer) ensureFast() *fastState {
	s.fastOnce.Do(s.buildFast)
	return s.fast
}

func (s *Scorer) buildFast() {
	f := &fastState{}
	// Collect every table the scorer can touch, in deterministic
	// first-seen order (inter rows by atom then receptor type, intra
	// pairs in table order); the bank deduplicates shared type pairs.
	var tbls []*tables.Radial
	for _, row := range s.interTbl {
		tbls = append(tbls, row...)
	}
	nInter := len(tbls)
	for _, pr := range s.intraTbl {
		tbls = append(tbls, pr.tbl)
	}
	bank, offs := tables.NewFastBank(tbls)
	f.bank = bank
	at := 0
	for _, row := range s.interTbl {
		if len(row) == 0 {
			f.interOffs = append(f.interOffs, nil) // hydrogen: never scored
			continue
		}
		f.interOffs = append(f.interOffs, offs[at:at+len(row)])
		at += len(row)
	}

	// Same-unit pairs keep their separation under every pose, so their
	// contribution folds into one constant — evaluated with the EXACT
	// tables at the base geometry, so the fold itself adds no table
	// error. Cross-unit pairs stay per-pose on the fast bank.
	unit := s.Lig.Tree.RigidUnits(s.Lig.Mol.NumAtoms())
	base := s.Lig.Coords(dock.Pose{
		Orientation: chem.QuatIdentity,
		Torsions:    make([]float64, s.Lig.NumTorsions()),
	})
	const cut2 = cutoff * cutoff
	for k, pr := range s.intraTbl {
		r2 := base[pr.i].Dist2(base[pr.j])
		if unit[pr.i] == unit[pr.j] && math.Abs(r2-cut2) > cutBoundaryEps {
			if r2 <= cut2 {
				f.rigidConst += pr.tbl.At2(r2)
			}
			continue
		}
		f.intraVar = append(f.intraVar, fastIntraPair{i: pr.i, j: pr.j, off: offs[nInter+k]})
	}
	// Offset order walks the bank monotonically (pairs sharing a table
	// run back to back); the deterministic tiebreak keeps the float32
	// accumulation sequence a pure function of the ligand.
	sort.Slice(f.intraVar, func(a, b int) bool {
		pa, pb := f.intraVar[a], f.intraVar[b]
		if pa.off != pb.off {
			return pa.off < pb.off
		}
		if pa.i != pb.i {
			return pa.i < pb.i
		}
		return pa.j < pb.j
	})
	s.fast = f
}

// ScoreBatchFast scores every pose of the batch through the
// tolerance-bounded fast path, writing slot p's affinity into out[p]:
// the same two-pass gather/evaluate structure as ScoreBatch, but
// reading the compact merged float32 bank, accumulating per-pose sums
// in float32, skipping the same-unit intramolecular pairs in favour of
// the folded constant, and combining in float64 at the end.
//
// For every pose, |out[p] − Score(pose)| ≤ FastAbsTol +
// FastRelTol·|Score(pose)| (pinned by TestVinaFastPathBound), and the
// value is a pure function of the pose — the per-pose accumulation
// never mixes lanes, so batch size and chunking cannot change it
// (pinned by TestVinaFastPathBatchInvariant).
//
// Safe for concurrent use after the first call on any goroutine has
// returned; the lazy precomputation itself is sync.Once-guarded, so
// concurrent first calls are also safe.
//
// unit: out=kcal/mol
func (s *Scorer) ScoreBatchFast(b *dock.Batch, out []float64) {
	f := s.ensureFast()
	n := b.Len()
	if n == 0 {
		return
	}
	out = out[:n]
	xs, ys, zs := b.SoA()
	stride := b.Stride()
	acc := b.Scratch32(2 * n)
	inter, intra := acc[:n], acc[n:]
	hits := b.Hits(len(s.packed.Atoms()))
	bank := f.bank
	const cut2 = cutoff * cutoff

	// Active window: share the anchor gather across the window's poses
	// exactly as ScoreBatch does. The filtered hit sequence is the one
	// Gather would emit, so the float32 accumulation — and with it the
	// pose-purity that the batch-invariance pin relies on — is
	// unchanged; escaped poses take the per-pose gather.
	anchor, bound, win := b.Window()
	var valid []bool
	var cands []dock.PackedAtom
	var coffs []int32
	if win {
		valid = b.WindowValid()
		cands, coffs = s.windowGather(b, anchor, bound)
	}

	for i := 0; i < stride; i++ {
		if s.ligIsH[i] {
			continue
		}
		offs := f.interOffs[i]
		var span []dock.PackedAtom
		if win {
			span = cands[coffs[i]:coffs[i+1]]
		}
		for p := 0; p < n; p++ {
			a := p*stride + i
			var m int
			if win && valid[p] {
				m = dock.FilterSpan(span, xs[a], ys[a], zs[a], cut2, hits, 0)
			} else {
				m = s.packed.Gather(chem.V(xs[a], ys[a], zs[a]), cut2, hits)
			}
			// Four independent accumulators: the evaluation loop is
			// latency-bound on the float32 add chain (one dependent add
			// per hit), so splitting the sum quadruples the throughput.
			// The summation order is a pure function of the hit
			// sequence, which is pose-pure, so batch invariance holds.
			var e0, e1, e2, e3 float32
			k := 0
			for ; k+3 < m; k += 4 {
				e0 += tables.FastAt(bank, offs[hits[k].Cls], hits[k].R2)
				e1 += tables.FastAt(bank, offs[hits[k+1].Cls], hits[k+1].R2)
				e2 += tables.FastAt(bank, offs[hits[k+2].Cls], hits[k+2].R2)
				e3 += tables.FastAt(bank, offs[hits[k+3].Cls], hits[k+3].R2)
			}
			for ; k < m; k++ {
				e0 += tables.FastAt(bank, offs[hits[k].Cls], hits[k].R2)
			}
			inter[p] += (e0 + e1) + (e2 + e3)
		}
	}

	// Dead pairs (anchor separation beyond cutoff + 2·bound) are skipped
	// when every pose of the window is valid; they contribute no term,
	// so the per-pose float32 sequence over the surviving pairs is the
	// full loop's. A batch with an escaped pose walks the full list.
	var pairs []int32
	if win && !slices.Contains(valid, false) {
		pairs = b.WindowLivePairs(f, len(f.intraVar), cutoff, func(k int) (i, j int32) {
			return f.intraVar[k].i, f.intraVar[k].j
		})
	}
	f.intraBatch(xs, ys, zs, stride, pairs, intra)

	for p := 0; p < n; p++ {
		out[p] = float64(inter[p])/s.rotFactor +
			intraWeight*(float64(intra[p])+f.rigidConst-s.intraRef)
	}
}

// intraBatch is Scorer.intraBatch over the fast path's cross-unit pair
// list and merged bank, accumulating in float32: pairs are ascending
// indices into f.intraVar (nil: all of them), so per pose the terms are
// added in list order either way.
func (f *fastState) intraBatch(xs, ys, zs []float64, stride int, pairs []int32, intra []float32) {
	const cut2 = cutoff * cutoff
	bank := f.bank
	np := len(f.intraVar)
	if pairs != nil {
		np = len(pairs)
	}
	for t := 0; t < np; t++ {
		k := t
		if pairs != nil {
			k = int(pairs[t])
		}
		pr := &f.intraVar[k]
		i, j := int(pr.i), int(pr.j)
		off := pr.off
		for p := range intra {
			at := p * stride
			dx := xs[at+i] - xs[at+j]
			dy := ys[at+i] - ys[at+j]
			dz := zs[at+i] - zs[at+j]
			if r2 := dx*dx + dy*dy + dz*dz; r2 <= cut2 {
				intra[p] += tables.FastAt(bank, off, r2)
			}
		}
	}
}
