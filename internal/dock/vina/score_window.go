package vina

import (
	"repro/internal/chem"
	"repro/internal/dock"
)

// windowGather returns the window's shared candidate CSR — for each
// ligand atom, every packed receptor atom within cutoff+bound of the
// atom's anchor position — building and caching it on the batch on
// first use. Both the exact and the fast kernel read the same CSR (it
// depends only on the anchor and the bound), so one build serves a
// whole window regardless of precision mode.
func (s *Scorer) windowGather(b *dock.Batch, anchor []chem.Vec3, bound float64) (cands []dock.PackedAtom, offs []int32) {
	if cands, offs, ok := b.WindowGather(s); ok {
		return cands, offs
	}
	stride := b.Stride()
	pc, of := b.WindowGatherScratch(s, stride+1)
	reach := cutoff + bound
	of[0] = 0
	for i := 0; i < stride; i++ {
		if !s.ligIsH[i] {
			s.packed.GatherShared(anchor[i], reach, pc)
		}
		of[i+1] = int32(len(*pc))
	}
	return *pc, of
}
