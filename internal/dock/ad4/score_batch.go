package ad4

import "repro/internal/dock"

// ScoreBatch writes Score of each pose of the batch into out[p]. It no
// longer runs a kernel of its own — the search scores every candidate
// through Score (DESIGN.md §4 "Retired kernel generations") — and
// stays only until bench/ stops calling it; its results equal Score's
// bit for bit by construction.
//
// unit: out=kcal/mol
func (s *Scorer) ScoreBatch(b *dock.Batch, out []float64) {
	for p := range b.Len() {
		out[p] = s.Score(b.Coords(p))
	}
}

// ScoreBatchFast is ScoreBatch: the tolerance-bounded path it named is
// retired, and it stays only until bench/ stops calling it.
//
// unit: out=kcal/mol
func (s *Scorer) ScoreBatchFast(b *dock.Batch, out []float64) { s.ScoreBatch(b, out) }
