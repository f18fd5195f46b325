package core

import (
	"fmt"
	"io"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/dock"
	"repro/internal/prep"
)

// ComplexResult describes an exported receptor-ligand complex.
type ComplexResult struct {
	Receptor string
	Ligand   string
	Program  prep.Program
	FEB      float64
	RMSD     float64
	Atoms    int
	// Stats is the work the docking search did (dock.Result.Stats),
	// which no campaign artifact records.
	Stats dock.Stats
}

// ExportComplex docks one pair and writes the receptor together with
// the best docked ligand pose as a single PDB — the 3D complex the
// paper's Figure 12 visualizes (receptor 2HHN with ligand 0E6 in the
// binding pocket). The ligand atoms are HETATM records in the
// receptor's frame, chain L.
func ExportComplex(w io.Writer, cfg Config, program prep.Program, recCode, ligCode string) (*ComplexResult, error) {
	if err := cfg.Effort.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(cfg, program)
	d, err := b.dockPair(recCode, ligCode)
	if err != nil {
		return nil, err
	}
	res, dlig := d.res, d.lig
	best, err := res.Best()
	if err != nil {
		return nil, err
	}
	prec, err := b.preparedReceptor(recCode)
	if err != nil {
		return nil, err
	}

	complexMol := &chem.Molecule{Name: fmt.Sprintf("%s-%s complex (%s)", recCode, ligCode, program)}
	complexMol.Atoms = append(complexMol.Atoms, prec.mol.Atoms...)
	coords := dlig.Coords(best.Pose)
	for i, a := range dlig.Mol.Atoms {
		a.Serial = len(complexMol.Atoms) + 1
		a.Pos = coords[i]
		a.Chain = "L"
		a.HetAtm = true
		complexMol.Atoms = append(complexMol.Atoms, a)
	}
	if err := formats.WritePDB(w, complexMol); err != nil {
		return nil, err
	}
	return &ComplexResult{
		Receptor: recCode,
		Ligand:   ligCode,
		Program:  program,
		FEB:      best.FEB,
		RMSD:     best.RMSD,
		Atoms:    complexMol.NumAtoms(),
		Stats:    res.Stats,
	}, nil
}

// RefineBest docks a pair, then applies the §V.D redocking refinement
// to its best pose and reports the improvement. Redocking refines the
// *reported* binding energy directly (the quantity Table 3 ranks), not
// the engine's search objective; the returned FEBs are calibrated.
func RefineBest(cfg Config, program prep.Program, recCode, ligCode string, iterations int) (before, after float64, err error) {
	if err := cfg.Effort.Validate(); err != nil {
		return 0, 0, err
	}
	b := newBuilder(cfg, program)
	d, err := b.dockPair(recCode, ligCode)
	if err != nil {
		return 0, 0, err
	}
	best, err := d.res.Best()
	if err != nil {
		return 0, 0, err
	}
	ref, err := dock.Refine(scorerFunc(d.reported), d.lig, d.box, best.Pose,
		iterations, b.pairSeed(recCode, ligCode)+1)
	if err != nil {
		return 0, 0, err
	}
	heavy := d.lig.Mol.HeavyAtomCount()
	before = b.reportedFEB(d.reported(d.lig.Coords(best.Pose)), heavy)
	after = b.reportedFEB(d.reported(d.lig.Coords(ref.Pose)), heavy)
	return before, after, nil
}

// scorerFunc adapts a plain scoring function to dock.Scorer.
type scorerFunc func([]chem.Vec3) float64

func (f scorerFunc) Score(coords []chem.Vec3) float64 { return f(coords) }
