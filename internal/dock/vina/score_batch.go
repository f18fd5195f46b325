package vina

import (
	"slices"

	"repro/internal/chem"
	"repro/internal/dock"
)

// ScoreBatch scores every pose of the batch, writing the affinity of
// slot p into out[p]. Results are bit-identical to calling Score on
// each pose's coordinates — Score is this walk for one pose: the same
// candidate spans, the same dock.FilterSpan, the same table read — and
// per pose every pair term is accumulated in exactly Score's order
// (per ligand atom its own sum over candidates in ascending packed
// order, the atom sums added in atom order; per fragment-pair group
// its own sum in table order, the group sums added in group order), so
// the float64 rounding sequence is unchanged — only the loop nest is
// inverted.
//
// The speed comes from layout, not from skipping work. The outer loop
// walks ligand atoms, so one atom's radial-table row and its touched
// table segments stay hot across every pose of the batch instead of
// being evicted once per pose. The receptor side runs each
// (atom, pose) query in two branch-free passes over the scorer's
// PackedNeighbors: gather the in-cutoff hits — heavy atoms only,
// position and table column packed in span order, whole cells dropped
// early by their prune spheres, no mispredicted branch on the ~75% of
// candidates beyond the cutoff — then evaluate the radial tables over
// the compact hit list, adding terms in exactly the sequential order.
//
// When the batch carries an active window (Batch.SetWindow +
// SetWindowBound), the receptor gather is shared: the candidate CSR is
// gathered once per ligand atom at the window anchor with the cutoff
// inflated by the bound, and every pose that WindowValid admits filters
// that span with dock.FilterSpan instead of running its own cell walk —
// same hit sequence, same accumulation, bit-identical result (the
// superset argument is on the ACTUAL pose coordinates, so it holds no
// matter how the bound was estimated). Poses that escape the bound,
// and all intramolecular terms of such poses, take the per-pose path
// unchanged. Intramolecular pairs whose anchor separation exceeds
// cutoff + 2·bound are skipped for the valid poses — they cannot enter
// the cutoff, so the skipped iterations never contributed a term.
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
	acc := b.Scratch(2 * n)
	inter, gsum := acc[:n], acc[n:]
	hits := b.Hits(len(s.packed.Atoms()))
	const cut2 = cutoff * cutoff

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
		row := s.interTbl[i]
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
			var sum float64
			for _, h := range hits[:m] {
				sum += row[h.Cls].At2(h.R2)
			}
			inter[p] += sum
		}
	}

	// Intramolecular terms, accumulated into out group by group
	// (identical per-pose addition sequence). A window whose poses are
	// all valid visits only its live pairs; an escaped pose needs the
	// whole table, and then the batch walks it for every pose — dead
	// pairs add no term, so the values are unchanged, and escapes are
	// the rare fallback.
	for p := range out {
		out[p] = 0
	}
	var pairs []int32
	if win && !slices.Contains(valid, false) {
		pairs = b.WindowLivePairs(s, len(s.intraTbl), cutoff, func(k int) (i, j int32) {
			return s.intraTbl[k].i, s.intraTbl[k].j
		})
	}
	s.intraBatch(xs, ys, zs, stride, pairs, gsum, out)

	for p := 0; p < n; p++ {
		out[p] = s.combine(inter[p], out[p])
	}
}

// intraBatch adds the intramolecular pair terms to out[p]: group-major
// then pair-major, poses inner, so one pair's table segment serves
// every pose. Each group's terms are summed into gsum (zero on entry
// and on return, one slot per pose) and the group sum added to out, as
// intraEnergy adds groupIntra. pairs lists the pairs to visit as
// ascending indices into s.intraTbl (nil: the whole table), so per
// pose a group's terms are added in table order either way; a group
// whose pairs are all skipped adds the zero its dead pairs sum to.
//
// exact: same per-pose addition sequence as intraEnergy
func (s *Scorer) intraBatch(xs, ys, zs []float64, stride int, pairs []int32, gsum, out []float64) {
	const cut2 = cutoff * cutoff
	np := len(s.intraTbl)
	if pairs != nil {
		np = len(pairs)
	}
	t := 0
	for _, gr := range s.groups {
		for ; t < np; t++ {
			k := t
			if pairs != nil {
				k = int(pairs[t])
			}
			if k >= int(gr.hi) {
				break
			}
			pr := &s.intraTbl[k]
			i, j := int(pr.i), int(pr.j)
			tbl := pr.tbl
			for p := range out {
				base := p * stride
				pi := chem.V(xs[base+i], ys[base+i], zs[base+i])
				pj := chem.V(xs[base+j], ys[base+j], zs[base+j])
				if r2 := pi.Dist2(pj); r2 <= cut2 {
					gsum[p] += tbl.At2(r2)
				}
			}
		}
		for p := range out {
			out[p] += gsum[p]
			gsum[p] = 0
		}
	}
}
