package tables

// Fast compact table geometry. The tolerance-bounded fast scorers
// trade table resolution for cache residency: a Radial is 16385+4097
// float64 nodes (~164 KB), and a docking pair touches dozens of
// distinct type-pair tables, so the exact working set (~2–6 MB) churns
// through L2 once per pose. The fast layout subsamples each table onto
// half-resolution core bins and quarter-resolution tail bins stored as
// float32 in one shared bank: ~36 KB per table, ~4.5× less memory
// traffic, with every fast node bit-equal to (the float32 rounding of)
// an exact node — the fast table is a sub-grid of the exact one, so no
// new analytic evaluation and no new kink placement is introduced.
//
// FastBinsCore keeps RMin²·FastInvCore = 128 an exact node (the AD4
// r ≥ 0.5 Å clamp stays on a node, like the exact geometry), and
// SplitR2 remains the shared boundary node. The residual error versus
// the exact tables — coarser linear interpolation plus float32 node
// rounding plus float32 accumulation in the scorers — is pinned by the
// dense+randomized equivalence sweeps in the engine packages and
// carried as each engine's FastAbsTol/FastRelTol bound.
const (
	// FastBinsCore is the number of r² bins covering [0, SplitR2):
	// every other exact core node.
	FastBinsCore = BinsCore / 2
	// FastBinsTail is the number of r² bins covering [SplitR2,
	// Cutoff²]: every fourth exact tail node.
	FastBinsTail = BinsTail / 4
	// FastNNodes is the per-table node count of a fast bank slot.
	FastNNodes = FastBinsCore + FastBinsTail + 1

	// FastInvCore and FastInvTail are the reciprocal bin widths; exported
	// so hot loops can write the interpolation out inline (the ad4 intra
	// sweep is beyond the inliner budget as a call).
	FastInvCore = FastBinsCore / SplitR2                   // core bins per Ų
	FastInvTail = FastBinsTail / (Cutoff*Cutoff - SplitR2) // tail bins per Ų
)

// NewFastBank subsamples the given radial tables into one merged
// float32 node bank, deduplicating by table identity (the process-wide
// cache hands out one *Radial per type pair, so equal pointers mean
// equal tables). offs[k] is the bank offset of tbls[k]'s FastNNodes
// nodes; duplicate inputs share one slot. Evaluate with FastAt.
func NewFastBank(tbls []*Radial) (bank []float32, offs []int32) {
	offs = make([]int32, len(tbls))
	seen := make(map[*Radial]int32, len(tbls))
	for k, t := range tbls {
		off, ok := seen[t]
		if !ok {
			off = int32(len(bank))
			seen[t] = off
			for i := 0; i < FastBinsCore; i++ {
				bank = append(bank, float32(t.vals[i*(BinsCore/FastBinsCore)]))
			}
			for j := 0; j <= FastBinsTail; j++ {
				bank = append(bank, float32(t.vals[BinsCore+j*(BinsTail/FastBinsTail)]))
			}
		}
		offs[k] = off
	}
	return bank, offs
}

// FastAt evaluates the fast table at bank offset off at squared
// distance r2 ≥ 0, interpolating linearly in float32. It is the single
// shared evaluator of the fast scorers — one-pose screens and batched
// kernels call exactly this function, so a pose's fast score is
// independent of the batch it was evaluated in.
//
// The grid coordinate drops to float32 straight away — one conversion,
// then pure float32 arithmetic. The coordinate magnitude is ≤ 9217, so
// the float32 rounding perturbs the interpolation weight (and, within
// one rounding of a node, which segment interpolates) by ≤ ~2⁻¹⁰ of a
// bin — absorbed by the same interpolation-error envelope the bound
// tests pin.
//
// unit: r2=Å2
func FastAt(bank []float32, off int32, r2 float64) float32 {
	x := float32(r2 * FastInvCore)
	if r2 >= SplitR2 {
		x = float32(FastBinsCore + (r2-SplitR2)*FastInvTail)
	}
	i := int32(x)
	if i >= FastNNodes-1 {
		return bank[off+FastNNodes-1]
	}
	v := bank[off+i]
	return v + (x-float32(i))*(bank[off+i+1]-v)
}
