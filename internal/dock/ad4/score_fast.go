package ad4

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
// The intermolecular term reads the same grid lattices through
// grid.InterAccumFast — float32 lerp arithmetic and accumulation,
// relative ~1e-7 of the term magnitudes (out-of-box penalty
// included), negligible against the intramolecular components. The
// rest of the error comes from the intramolecular term — coarser
// fast-table interpolation, float32 node rounding, float32
// accumulation and the rigid-pair fold — damped by weightIntra. The
// relative term is sized for self-clashed conformations sitting just
// above the RMin² clamp, where the r⁻¹² wall spans orders of
// magnitude and the coarser interpolation tracks it proportionally
// (measured ~3e-4 relative on randomized clashes). The
// dense+randomized sweep in TestAD4FastPathBound measures the worst
// case at ≤ half of this envelope.
const (
	FastAbsTol = 0.01 // kcal/mol
	FastRelTol = 2e-3
)

// FastMargin is the screening slack at incumbent energy e: a candidate
// whose fast score exceeds e + FastMargin(e) provably cannot beat e
// exactly (FastRelTol < 1 makes e ↦ e + FastRelTol·|e| monotone).
func FastMargin(e float64) float64 {
	return FastAbsTol + FastRelTol*math.Abs(e)
}

// fastIntraPair is one cross-unit intramolecular pair of the fast
// path: atom indices and its table's offset in the bank. In combined
// mode the table folds the pair's Coulomb term and qq is unused; in
// split mode (see buildFast) the table is radial-only and qq carries
// the Coulomb factor applied per pose in float64.
type fastIntraPair struct {
	i, j int32
	off  int32
	qq   float64
}

// Three-regime intra table geometry. The combined per-pair tables are
// the fast path's cache hog — one table per distinct (type pair,
// charge product), so the error budget buys footprint, not sharing —
// and a uniform-in-r² grid wastes almost all of its nodes where the
// potential is smooth. The wall regime [0, intraWallR2) keeps the
// full fast-core resolution (512 bins/Ų, a subgrid of the exact core,
// so the r⁻¹² wall's ~3e-4 relative interpolation error and every
// sub-4 Ų H-bond feature are unchanged); the mid regime
// [intraWallR2, SplitR2) drops to 40 bins/Ų, where the residual
// repulsive slope of large-σ pairs keeps the relative lerp error
// ≤ 42·h²/(8·r⁴) ≈ 2e-4; the tail [SplitR2, Cutoff²] reuses the fast
// tail's 21.3 bins/Ų. 3553 nodes per table instead of 9217+9217 —
// the whole bank drops under its previous Coulomb table alone —
// with the worst case measured by TestAD4FastPathBound as always.
const (
	intraWallR2   = 4.0
	intraWallBins = 2048 // intraWallR2 · tables.FastInvCore
	intraMidBins  = 480  // 40 bins/Ų over [intraWallR2, SplitR2)
	intraTailBins = tables.FastBinsTail
	intraNNodes   = intraWallBins + intraMidBins + intraTailBins + 1
	intraInvMid   = intraMidBins / (tables.SplitR2 - intraWallR2)
)

// intraNodeR2 returns the squared distance of intra table node i.
func intraNodeR2(i int) float64 {
	switch {
	case i < intraWallBins:
		return float64(i) / tables.FastInvCore
	case i < intraWallBins+intraMidBins:
		return intraWallR2 + float64(i-intraWallBins)/intraInvMid
	default:
		return tables.SplitR2 + float64(i-intraWallBins-intraMidBins)/tables.FastInvTail
	}
}

// fastState is the lazily built fast-path precomputation: the merged
// float32 bank of combined per-pair tables (the pair's vdW/H-bond
// radial plus its qq·(1/r²) Coulomb term sampled on the three-regime
// node grid, folded at build time so the hot loop runs ONE lerp per
// pair-pose), the cross-unit pairs sorted by bank offset, and the
// folded same-unit constant.
type fastState struct {
	bank       []float32
	intraVar   []fastIntraPair
	rigidConst float64 // exact-table intra energy of the same-unit pairs
	split      bool    // radial-only bank + per-pair float64 Coulomb
}

// splitBankNodes gates the combined bank: one combined table per
// distinct (radial table, charge product), and continuous Gasteiger
// charges make nearly every pair's qq distinct — on a production-sized
// ligand the combined bank scales with PAIR count, not type-pair
// count, and would run to hundreds of megabytes. Beyond this budget
// (~4 MB of float32 nodes) buildFast switches to split mode:
// radial-only tables deduplicated by *tables.Radial (bounded by the
// type inventory) plus the exact qq/r² Coulomb term per pair-pose in
// float64 — bit-exact Coulomb, the same three-regime radial
// resolution, and float64 intra accumulation so the thousands-of-pairs
// sum cannot erode the FastAbsTol envelope.
const splitBankNodes = 1 << 20

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

	// Same-unit pairs keep their separation under every pose, so their
	// contribution — table term, r ≥ 0.5 Å clamp and Coulomb term alike
	// — folds into one constant evaluated with the EXACT tables at the
	// base geometry. Cross-unit pairs stay per-pose on the fast bank.
	var varTbl []*tables.Radial
	var varQQ []float64
	unit := s.Lig.Tree.RigidUnits(s.Lig.Mol.NumAtoms())
	base := s.Lig.Coords(dock.Pose{
		Orientation: chem.QuatIdentity,
		Torsions:    make([]float64, s.Lig.NumTorsions()),
	})
	const cut2 = intraCutoff * intraCutoff
	for _, pr := range s.intraTbl {
		r2 := base[pr.i].Dist2(base[pr.j])
		if unit[pr.i] == unit[pr.j] && math.Abs(r2-cut2) > cutBoundaryEps {
			if r2 <= cut2 {
				if r2 < tables.RMin2 {
					r2 = tables.RMin2
				}
				f.rigidConst += pr.tbl.At2(r2) + pr.qq/r2
			}
			continue
		}
		f.intraVar = append(f.intraVar, fastIntraPair{i: pr.i, j: pr.j})
		varTbl = append(varTbl, pr.tbl)
		varQQ = append(varQQ, pr.qq)
	}

	// Build the combined tables, deduplicated by (radial table, qq):
	// node k holds tbl(r²ₖ) + qq/r²ₖ with sub-RMin² nodes pinned to
	// the clamp value — RMin²·512 = node 128 exactly, so a clamped
	// query interpolates the clamp value with zero error, like the
	// exact path's r ≥ 0.5 Å clamp. When the combined bank would
	// overflow splitBankNodes, split mode stores radial-only tables
	// instead and keeps each pair's qq for the per-pose float64 Coulomb
	// term.
	type combKey struct {
		tbl *tables.Radial
		qq  float64
	}
	distinct := make(map[combKey]struct{}, len(f.intraVar))
	for k := range f.intraVar {
		distinct[combKey{varTbl[k], varQQ[k]}] = struct{}{}
	}
	var bank []float32
	if len(distinct)*intraNNodes > splitBankNodes {
		f.split = true
		seen := make(map[*tables.Radial]int32)
		for k := range f.intraVar {
			t := varTbl[k]
			o, ok := seen[t]
			if !ok {
				o = int32(len(bank))
				for i := 0; i < intraNNodes; i++ {
					u := intraNodeR2(i)
					if u < tables.RMin2 {
						u = tables.RMin2
					}
					bank = append(bank, float32(t.At2(u)))
				}
				seen[t] = o
			}
			f.intraVar[k].off = o
			f.intraVar[k].qq = varQQ[k]
		}
	} else {
		seen := make(map[combKey]int32, len(f.intraVar))
		for k := range f.intraVar {
			ck := combKey{varTbl[k], varQQ[k]}
			o, ok := seen[ck]
			if !ok {
				o = int32(len(bank))
				for i := 0; i < intraNNodes; i++ {
					u := intraNodeR2(i)
					if u < tables.RMin2 {
						u = tables.RMin2
					}
					bank = append(bank, float32(varTbl[k].At2(u)+varQQ[k]/u))
				}
				seen[ck] = o
			}
			f.intraVar[k].off = o
		}
	}
	// One padding node: the written-out interpolation in ScoreBatchFast
	// drops the last-node clamp (the cutoff truncation already bounds
	// the segment index), so a query landing exactly on a table's last
	// node reads one element past it — the next table's first node, or
	// this padding — at weight zero.
	f.bank = append(bank, 0)

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
// tolerance-bounded fast path, writing slot p's free energy into
// out[p]: float32 intermolecular grid accumulation over the same
// lattices (grid.InterAccumFast), fast intramolecular term over the
// compact float32 bank with float32 per-pose accumulation and the
// same-unit pairs folded into rigidConst, combined in float64.
//
// For every pose, |out[p] − Score(pose)| ≤ FastAbsTol +
// FastRelTol·|Score(pose)| (pinned by TestAD4FastPathBound), and the
// value is a pure function of the pose — batch size and chunking
// cannot change it (pinned by TestAD4FastPathBatchInvariant).
//
// Safe for concurrent use; the lazy precomputation is
// sync.Once-guarded.
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
	var inter, intra []float32
	var intra64 []float64
	if f.split {
		inter = b.Scratch32(n)
		intra64 = b.Scratch(n)
	} else {
		acc := b.Scratch32(2 * n)
		inter, intra = acc[:n], acc[n:]
	}

	for i := 0; i < stride; i++ {
		s.Maps.InterAccumFast(s.atomTypes[i], xs[i:], ys[i:], zs[i:], stride,
			weightVdw, s.wq[i], s.wdq[i], inter)
	}

	// Active window with every pose WindowValid: dead pairs (anchor
	// separation beyond intraCutoff + 2·bound) are skipped — they
	// contribute no term, so the per-pose accumulation sequence over the
	// surviving pairs is the full loop's and the value stays a pure
	// function of the pose. A batch with an escaped pose walks the full
	// list.
	var pairs []int32
	if _, _, win := b.Window(); win && !slices.Contains(b.WindowValid(), false) {
		pairs = b.WindowLivePairs(f, len(f.intraVar), intraCutoff, func(k int) (i, j int32) {
			return f.intraVar[k].i, f.intraVar[k].j
		})
	}
	f.intraBatch(xs, ys, zs, stride, n, pairs, intra, intra64)

	if f.split {
		for p := 0; p < n; p++ {
			out[p] = float64(inter[p]) + weightIntra*(intra64[p]+f.rigidConst) + s.torsTerm
		}
	} else {
		for p := 0; p < n; p++ {
			out[p] = float64(inter[p]) + weightIntra*(float64(intra[p])+f.rigidConst) + s.torsTerm
		}
	}
}

// intraBatch adds the cross-unit intramolecular pair terms of the fast
// path: pair-major, poses inner, so the per-pair constants hoist out of
// the pose loop and the batch SoA the inner loop streams stays
// L2-resident. pairs lists the pairs to visit as ascending indices into
// f.intraVar (nil: all of them), so per pose the terms are added in
// list order either way and the value stays a pure function of the
// pose. Combined mode reads the pair's vdW+Coulomb table into the
// float32 accumulator; split mode reads the radial-only table and adds
// the exact qq/r² Coulomb term, accumulating in float64.
func (f *fastState) intraBatch(xs, ys, zs []float64, stride, n int, pairs []int32, intra []float32, intra64 []float64) {
	const cut2 = intraCutoff * intraCutoff
	bank, split := f.bank, f.split
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
		off, qq := pr.off, pr.qq
		xi, yi, zi := xs[pr.i:], ys[pr.i:], zs[pr.i:]
		xj, yj, zj := xs[pr.j:], ys[pr.j:], zs[pr.j:]
		// Two poses per iteration (the second lane idles on an odd
		// tail): both squared distances are formed before either table
		// read, so the second pose's loads are in flight while the first
		// pose's lerp chain resolves — this loop is the fast path's
		// hottest, and unpaired it runs ~40 % slower.
		for p, at := 0, 0; p < n; p, at = p+2, at+2*stride {
			q, at2 := p+1, at+stride
			if q == n {
				q, at2 = p, at
			}
			dxa := xi[at] - xj[at]
			dya := yi[at] - yj[at]
			dza := zi[at] - zj[at]
			dxb := xi[at2] - xj[at2]
			dyb := yi[at2] - yj[at2]
			dzb := zi[at2] - zj[at2]
			r2a := dxa*dxa + dya*dya + dza*dza
			r2b := dxb*dxb + dyb*dyb + dzb*dzb
			if r2a <= cut2 {
				if r2a < tables.RMin2 {
					r2a = tables.RMin2
				}
				if split {
					intra64[p] += float64(fastIntraAt(bank, off, r2a)) + qq/r2a
				} else {
					intra[p] += fastIntraAt(bank, off, r2a)
				}
			}
			if r2b <= cut2 && q != p {
				if r2b < tables.RMin2 {
					r2b = tables.RMin2
				}
				if split {
					intra64[q] += float64(fastIntraAt(bank, off, r2b)) + qq/r2b
				} else {
					intra[q] += fastIntraAt(bank, off, r2b)
				}
			}
		}
	}
}

// fastIntraAt is the three-regime lerp of one pair table in the bank.
// r2 must already carry the RMin² clamp and sit within the cutoff: the
// truncated-and-clamped r2 keeps the segment index in
// [0, intraNNodes-1], and the bank's per-table successor node (next
// table's first node, or the final padding node) makes the +1 read safe
// when r2 lands exactly on the last node, where its weight is zero.
func fastIntraAt(bank []float32, off int32, r2 float64) float32 {
	x := float32(r2 * tables.FastInvCore)
	if r2 >= intraWallR2 {
		x = float32(intraWallBins + (r2-intraWallR2)*intraInvMid)
	}
	if r2 >= tables.SplitR2 {
		x = float32(intraWallBins + intraMidBins + (r2-tables.SplitR2)*tables.FastInvTail)
	}
	ib := int32(x)
	w := x - float32(ib)
	v := bank[off+ib]
	return v + w*(bank[off+ib+1]-v)
}
