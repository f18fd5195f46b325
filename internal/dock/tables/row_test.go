package tables

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chem"
)

// TestRowMatchesTables pins map generation's row read: every column
// AddAt2 reads from an AD4Row equals its own table's At2, bit for bit, at every node, at
// every bin's midpoint, at seeded random r² from 0 to past the cutoff,
// and at the cutoff itself.
func TestRowMatchesTables(t *testing.T) {
	reversed := slices.Clone(sweepTypes[:4])
	slices.Reverse(reversed)
	lists := [][]chem.AtomType{sweepTypes, reversed, {chem.TypeOA}, nil}
	rng := rand.New(rand.NewSource(7))
	var r2s []float64
	for i := range nNodes {
		r2s = append(r2s, nodeR2(i))
		if i+1 < nNodes {
			r2s = append(r2s, (nodeR2(i)+nodeR2(i+1))/2)
		}
	}
	for range 4000 {
		r2s = append(r2s, rng.Float64()*1.1*Cutoff*Cutoff)
	}
	r2s = append(r2s, Cutoff*Cutoff, 0)
	for _, rec := range sweepTypes {
		for _, probes := range lists {
			row := AD4Row(rec, probes)
			var cols []*Radial
			for _, p := range probes {
				cols = append(cols, AD4Smoothed(p, rec))
			}
			cols = append(cols, Electrostatic(), Desolvation())
			got := make([]float64, len(cols))
			for _, r2 := range r2s {
				// −0 is the additive identity of every float64, −0
				// included, so the sum AddAt2 leaves is the value.
				negZero := math.Copysign(0, -1)
				for c := range got {
					got[c] = negZero
				}
				got[len(probes)], got[len(probes)+1] = row.AddAt2(got, r2)
				for c, tbl := range cols {
					if want := tbl.At2(r2); math.Float64bits(got[c]) != math.Float64bits(want) {
						t.Fatalf("AD4Row(%s, %v) column %d at r²=%v: %v, its table gives %v", rec, probes, c, r2, got[c], want)
					}
				}
			}
		}
	}
}

// TestRowInterned pins AD4Row's interning: one row per (receptor type,
// probe list), shared by every caller, and a different order or list
// is a different row.
func TestRowInterned(t *testing.T) {
	a := AD4Row(chem.TypeC, []chem.AtomType{chem.TypeC, chem.TypeOA})
	if b := AD4Row(chem.TypeC, []chem.AtomType{chem.TypeC, chem.TypeOA}); a != b {
		t.Error("two lookups of one key built two rows")
	}
	for _, other := range []*Row{
		AD4Row(chem.TypeC, []chem.AtomType{chem.TypeOA, chem.TypeC}),
		AD4Row(chem.TypeN, []chem.AtomType{chem.TypeC, chem.TypeOA}),
		AD4Row(chem.TypeC, []chem.AtomType{chem.TypeC}),
	} {
		if other == a {
			t.Error("distinct keys share one row")
		}
	}
}
