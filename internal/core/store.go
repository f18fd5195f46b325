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
// PDBQT and the grid spec; per (receptor, type set), AutoGrid's .fld
// bytes. Rendered bytes are handed to every pair that stages them as
// the same slice — simfs.Write keeps it — so a file staged into many
// pair directories is held once. A product only one program reads is
// not here: AutoDock's lattice sets and Vina's receptor index belong
// to the builder of the workflow that reads them (lattice.go), and
// become unreachable when that workflow returns.
//
// NewCampaign creates the store and Execute drops it: nothing in it
// outlives the run, and nothing is shared between campaigns.
type store struct {
	effort  Effort
	ligands []string // the dataset's ligand codes, the source of the probe union

	mol2s     memo[*ligandMol2]
	prepared  memo[*preparedLigand]
	receptors memo[*preparedReceptor]
	flds      memo[[]byte]

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
		return &ligandMol2{mol: mol, bytes: bytes.Clone(buf.Bytes())}, nil
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
		return &preparedLigand{PreparedLigand: pl, pdbqt: bytes.Clone(buf.Bytes())}, nil
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
		return &preparedReceptor{mol: mol, pdbqt: bytes.Clone(buf.Bytes()), spec: grid.Spec{
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

// probeSet returns the memo key and probe list of the lattice set that
// covers types: the receptor's one set for the whole probe union, or —
// for a ligand from outside the dataset that carries a type the union
// lacks — a set of its own. A lattice does not depend on which other
// probes shared its pass (grid.Maps.Subset), so either is bit-equal to
// maps generated for exactly these types.
func (s *store) probeSet(rec string, types []chem.AtomType) (string, []chem.AtomType) {
	probes := s.probeUnion()
	for _, t := range types {
		if !slices.Contains(probes, t) {
			return rec + "|" + typesKey(types), types
		}
	}
	return rec, probes
}

// fld returns the .maps.fld AutoGrid stages for a ligand with the given
// atom types. It reads no lattice: the file lists the spec, the
// receptor and the sorted types. The receptor and the probe set its
// lattice set would be generated for are checked as grid.Generate
// checks them, so the activation fails exactly where generation would.
func (s *store) fld(rec string, types []chem.AtomType) ([]byte, error) {
	return s.flds.get(rec+"|"+typesKey(types), func() ([]byte, error) {
		r, err := s.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		_, probes := s.probeSet(rec, types)
		if err := grid.Validate(r.mol, r.spec, probes); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := grid.WriteFLDFor(&buf, r.spec, r.mol.Name, types); err != nil {
			return nil, err
		}
		return bytes.Clone(buf.Bytes()), nil
	})
}

// typesKey canonicalizes an atom-type list into a memo key: sorted and
// deduplicated, so permuted or repeated ligand type lists share one
// entry (maps are keyed per type, so order and multiplicity never
// affect them).
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
