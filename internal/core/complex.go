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
