package core

import (
	"repro/internal/chem"
	"repro/internal/dock/vina"
	"repro/internal/grid"
)

// latticeSet returns the receptor's lattice set covering types (see
// store.probeSet), generating it on first use.
func (b *builder) latticeSet(rec string, types []chem.AtomType) (*grid.Maps, error) {
	key, probes := b.probeSet(rec, types)
	return b.lattices.get(key, func() (*grid.Maps, error) {
		r, err := b.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		return grid.Generate(r.mol, r.spec, probes)
	})
}

// gridMaps returns the maps a ligand with the given atom types docks
// against: a view of the receptor's lattice set that sees exactly
// those types, so its .map files and AD4 scores equal those of a set
// generated for this ligand alone.
func (b *builder) gridMaps(rec string, types []chem.AtomType) (*grid.Maps, error) {
	return b.views.get(rec+"|"+typesKey(types), func() (*grid.Maps, error) {
		set, err := b.latticeSet(rec, types)
		if err != nil {
			return nil, err
		}
		return set.Subset(types)
	})
}

// vinaIndex returns Vina's read-only index of the receptor, shared by
// every ligand the workflow docks against it.
func (b *builder) vinaIndex(rec string) (*vina.ReceptorIndex, error) {
	return b.indexes.get(rec, func() (*vina.ReceptorIndex, error) {
		r, err := b.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		return vina.NewReceptorIndex(r.mol)
	})
}
