package tables_test

import (
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/tables"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// TestInternLargePairScorers pins what interning saves on the
// benchmark's L2-overflow pair: the tables one 9XLR/XL1 dock builds —
// AutoGrid's maps for XL1's types, the AD4 scorer and the Vina scorer
// — are 183 keys over 112 distinct tables. Map generation's rows
// tabulate their columns without caching them.
func TestInternLargePairScorers(t *testing.T) {
	rec, _ := data.GenerateLargeReceptor()
	raw, _ := data.GenerateLargeLigand()
	prec, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	mol2, err := prep.ConvertSDFToMol2(raw)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prep.PrepareLigand(mol2)
	if err != nil {
		t.Fatal(err)
	}
	lig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		t.Fatal(err)
	}

	tables.ResetCache()
	t.Cleanup(tables.ResetCache)
	// The table set does not depend on the lattice size.
	spec := grid.Spec{Center: chem.Vec3{}, NPts: [3]int{4, 4, 4}, Spacing: 1}
	maps, err := grid.Generate(prec, spec, pl.Mol.AtomTypes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ad4.NewScorer(maps, lig); err != nil {
		t.Fatal(err)
	}
	if _, err := vina.NewScorer(prec, lig); err != nil {
		t.Fatal(err)
	}
	if keys, tbls := tables.CacheCounts(); keys != 183 || tbls != 112 {
		t.Errorf("9XLR/XL1 scorers: %d keys over %d tables, want 183 over 112", keys, tbls)
	}
}
