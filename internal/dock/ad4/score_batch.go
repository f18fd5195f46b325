package ad4

import (
	"slices"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// ScoreBatch scores every pose of the batch, writing the free energy
// of slot p into out[p]. Results are bit-identical to calling Score on
// each pose's coordinates — Score is this walk for one pose,
// grid.Maps.InterPose adding InterAccum's terms in its order, and the
// same table read: per pose every term is
// accumulated in exactly the sequential order — atoms ascending with
// the vdW, electrostatic and desolvation reads in that order,
// intramolecular pairs in table order, then
// inter + weightIntra·intra + torsTerm — so the float64 rounding
// sequence is unchanged and only the loop nest is inverted.
//
// The speed comes from locality: the outer loop walks ligand atoms,
// so one atom's resolved map lattices and the grid region under the
// batch's poses stay hot across the whole batch. The intramolecular
// loop is pair-major for the same reason: one pair's radial-table
// segment serves every pose.
//
// Safe for concurrent use: the scorer is read-only here, all mutable
// state lives in the caller-owned batch and out.
//
// unit: out=kcal/mol
// exact: bit-identical to per-pose Score; float32 belongs in ScoreBatchFast
func (s *Scorer) ScoreBatch(b *dock.Batch, out []float64) {
	n := b.Len()
	if n == 0 {
		return
	}
	out = out[:n]
	xs, ys, zs := b.SoA()
	stride := b.Stride()
	inter := b.Scratch(n)

	for i := 0; i < stride; i++ {
		s.Maps.InterAccum(s.affFld[i], xs[i:], ys[i:], zs[i:], stride,
			weightVdw, s.wq[i], s.wdq[i], inter)
	}

	// Intramolecular terms, accumulated into out in table order with
	// the r ≥ 0.5 Å clamp applied in r² space exactly as the per-pose
	// path does. With an active window (Batch.SetWindow +
	// SetWindowBound) whose poses are all WindowValid, pairs whose
	// anchor separation exceeds intraCutoff + 2·bound are skipped — they
	// cannot enter the cutoff, so the skipped iterations never
	// contributed a term and the accumulation sequence is unchanged. A
	// batch with an escaped pose (the rare fallback) walks the full pair
	// table for every pose, which by the same argument changes no
	// value. AD4's intermolecular term is a grid read and needs no
	// window treatment.
	for p := range out {
		out[p] = 0
	}
	var pairs []int32
	if _, _, win := b.Window(); win && !slices.Contains(b.WindowValid(), false) {
		pairs = b.WindowLivePairs(s, len(s.intraTbl), intraCutoff, func(k int) (i, j int32) {
			return s.intraTbl[k].i, s.intraTbl[k].j
		})
	}
	s.intraBatch(xs, ys, zs, stride, pairs, out)

	for p := 0; p < n; p++ {
		out[p] = inter[p] + weightIntra*out[p] + s.torsTerm
	}
}

// intraBatch adds the intramolecular pair terms to out[p]: pair-major,
// poses inner, so one pair's table segment serves every pose. pairs
// lists the pairs to visit as ascending indices into s.intraTbl (nil:
// the whole table), so per pose the terms are added in table order
// either way.
//
// exact: same per-pose addition sequence as intra
func (s *Scorer) intraBatch(xs, ys, zs []float64, stride int, pairs []int32, out []float64) {
	const cut2 = intraCutoff * intraCutoff
	np := len(s.intraTbl)
	if pairs != nil {
		np = len(pairs)
	}
	for t := 0; t < np; t++ {
		k := t
		if pairs != nil {
			k = int(pairs[t])
		}
		pr := &s.intraTbl[k]
		i, j := int(pr.i), int(pr.j)
		tbl, qq := pr.tbl, pr.qq
		for p := range out {
			base := p * stride
			pi := chem.V(xs[base+i], ys[base+i], zs[base+i])
			pj := chem.V(xs[base+j], ys[base+j], zs[base+j])
			r2 := pi.Dist2(pj)
			if r2 > cut2 {
				continue
			}
			if r2 < tables.RMin2 {
				r2 = tables.RMin2
			}
			out[p] += tbl.At2(r2) + qq/r2
		}
	}
}
