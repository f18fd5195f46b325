package core

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/data"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// store is a campaign's product store: everything an activity body
// derives from a receptor code or a ligand code alone, computed once
// and shared by every pair and every workflow of the campaign. The
// sweep is a cross product, so each receptor-side product serves every
// ligand and both programs of an adaptive campaign; the real
// deployment re-ran the tools per pair, and the cost model still
// charges every activation per pair, so no virtual time moves.
//
// It holds, per ligand, the Mol2 and prepared molecules with their
// rendered bytes; per receptor, the prepared molecule, its rendered
// PDBQT, the grid spec, one lattice set covering the union of the
// dataset's ligand atom types and Vina's receptor index; per
// (receptor, type set), a grid.Maps view over that lattice set with
// its .fld bytes. Rendered bytes are handed to every pair that stages
// them as the same slice — simfs.Write keeps it — so a file staged
// into many pair directories is held once.
//
// NewCampaign creates the store and Execute drops it: nothing in it
// outlives the run, and nothing is shared between campaigns.
type store struct {
	effort  Effort
	ligands []string // the dataset's ligand codes, the source of the probe union

	mol2s     memo[*ligandMol2]
	prepared  memo[*preparedLigand]
	receptors memo[*preparedReceptor]
	lattices  memo[*grid.Maps]
	views     memo[*mapsView]
	indexes   memo[*vina.ReceptorIndex]

	unionOnce sync.Once
	union     []chem.AtomType
}

func newStore(cfg Config) *store {
	return &store{effort: cfg.Effort, ligands: cfg.Dataset.Ligands}
}

// memo computes each key's product at most once, under concurrent
// callers, and remembers a failure like a value.
type memo[T any] struct{ m sync.Map }

type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (c *memo[T]) get(key string, f func() (T, error)) (T, error) {
	e, _ := c.m.LoadOrStore(key, &memoEntry[T]{})
	ce := e.(*memoEntry[T])
	ce.once.Do(func() { ce.val, ce.err = f() })
	return ce.val, ce.err
}

// ligandMol2 is activity 1's product for one ligand.
type ligandMol2 struct {
	mol   *chem.Molecule
	bytes []byte // formats.WriteMol2 of mol
}

// preparedLigand is activity 2's product for one ligand.
type preparedLigand struct {
	*prep.PreparedLigand
	pdbqt []byte // formats.WritePDBQTLigand of it
}

// preparedReceptor is activity 3's product for one receptor.
type preparedReceptor struct {
	mol   *chem.Molecule
	pdbqt []byte    // formats.WritePDBQTReceptor of mol
	spec  grid.Spec // the effort preset's lattice, centred on the pocket
}

// mapsView is activity 5's product for one receptor and ligand type
// set.
type mapsView struct {
	maps *grid.Maps
	fld  []byte // maps.WriteFLD
}

func (s *store) ligandMol2(code string) (*ligandMol2, error) {
	return s.mol2s.get(code, func() (*ligandMol2, error) {
		raw, _ := data.GenerateLigand(code)
		raw.Translate(ligandFrameOffset(code))
		mol, err := prep.ConvertSDFToMol2(raw)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := formats.WriteMol2(&buf, mol); err != nil {
			return nil, err
		}
		return &ligandMol2{mol: mol, bytes: buf.Bytes()}, nil
	})
}

func (s *store) preparedLigand(code string) (*preparedLigand, error) {
	return s.prepared.get(code, func() (*preparedLigand, error) {
		src, err := s.ligandMol2(code)
		if err != nil {
			return nil, err
		}
		pl, err := prep.PrepareLigand(src.mol)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := formats.WritePDBQTLigand(&buf, pl.Mol, pl.Tree); err != nil {
			return nil, err
		}
		return &preparedLigand{PreparedLigand: pl, pdbqt: buf.Bytes()}, nil
	})
}

func (s *store) preparedReceptor(code string) (*preparedReceptor, error) {
	return s.receptors.get(code, func() (*preparedReceptor, error) {
		raw, _ := data.GenerateReceptor(code)
		mol, err := prep.PrepareReceptor(raw)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := formats.WritePDBQTReceptor(&buf, mol); err != nil {
			return nil, err
		}
		min, max := chem.BoundingBox(mol.Positions())
		n := s.effort.GridNPts
		return &preparedReceptor{mol: mol, pdbqt: buf.Bytes(), spec: grid.Spec{
			Center:  min.Lerp(max, 0.5),
			NPts:    [3]int{n, n, n},
			Spacing: s.effort.GridSpacing,
		}}, nil
	})
}

// probeUnion returns the distinct atom types of the dataset's ligands
// in first-seen order. A ligand whose preparation fails contributes
// nothing here and still fails its own activations.
func (s *store) probeUnion() []chem.AtomType {
	s.unionOnce.Do(func() {
		for _, code := range s.ligands {
			pl, err := s.preparedLigand(code)
			if err != nil {
				continue
			}
			for _, t := range pl.Mol.AtomTypes() {
				if !slices.Contains(s.union, t) {
					s.union = append(s.union, t)
				}
			}
		}
	})
	return s.union
}

// latticeSet returns the receptor's lattices covering types: the one
// set generated in a single pass for the whole probe union, or — for a
// ligand from outside the dataset that carries a type the union lacks
// — a set of its own. A lattice does not depend on which other probes
// shared its pass (grid.Maps.Subset), so either is bit-equal to maps
// generated for exactly these types.
func (s *store) latticeSet(rec string, types []chem.AtomType) (*grid.Maps, error) {
	key, probes := rec, s.probeUnion()
	for _, t := range types {
		if !slices.Contains(probes, t) {
			key, probes = rec+"|"+typesKey(types), types
			break
		}
	}
	return s.lattices.get(key, func() (*grid.Maps, error) {
		r, err := s.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		return grid.Generate(r.mol, r.spec, probes)
	})
}

// gridMaps returns the maps a ligand with the given atom types docks
// against: a view of the receptor's lattice set that sees exactly
// those types, so its .fld, its .map files and AD4 scores equal those
// of a set generated for this ligand alone.
func (s *store) gridMaps(rec string, types []chem.AtomType) (*mapsView, error) {
	return s.views.get(rec+"|"+typesKey(types), func() (*mapsView, error) {
		set, err := s.latticeSet(rec, types)
		if err != nil {
			return nil, err
		}
		view, err := set.Subset(types)
		if err != nil {
			return nil, err
		}
		var fld bytes.Buffer
		if err := view.WriteFLD(&fld); err != nil {
			return nil, err
		}
		return &mapsView{maps: view, fld: fld.Bytes()}, nil
	})
}

// vinaIndex returns Vina's read-only index of the receptor, shared by
// every ligand docked against it.
func (s *store) vinaIndex(rec string) (*vina.ReceptorIndex, error) {
	return s.indexes.get(rec, func() (*vina.ReceptorIndex, error) {
		r, err := s.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		return vina.NewReceptorIndex(r.mol)
	})
}

// typesKey canonicalizes an atom-type list into a memo key: sorted and
// deduplicated, so permuted or repeated ligand type lists share one
// view (the lattices are keyed per type, so order and multiplicity
// never affect the maps).
func typesKey(ts []chem.AtomType) string {
	ss := make([]string, len(ts))
	for i, t := range ts {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	uniq := ss[:0]
	for _, s := range ss {
		if n := len(uniq); n == 0 || s != uniq[n-1] {
			uniq = append(uniq, s)
		}
	}
	return strings.Join(uniq, ",")
}
