package data

import "fmt"

// Pair is one receptor-ligand docking pair, the unit of work SciDock
// sweeps over.
type Pair struct {
	Receptor string
	Ligand   string
}

// Dataset is a workload: a set of receptor and ligand codes whose
// cross product forms the docking pairs.
type Dataset struct {
	Receptors []string
	Ligands   []string
}

// Full returns the paper's complete Table 2 workload: 238 receptors ×
// 42 ligands ≈ 10,000 receptor-ligand pairs.
func Full() Dataset {
	return Dataset{Receptors: ReceptorCodes, Ligands: LigandCodes}
}

// Table3 returns the Table 3 analysis subset: all 238 receptors × the
// first 4 ligands ("the first 1,000 receptor-ligand pairs").
func Table3() Dataset {
	return Dataset{Receptors: ReceptorCodes, Ligands: Table3Ligands}
}

// Small returns a reduced workload for tests and the quickstart
// example: nr receptors × nl ligands from the head of Table 2.
func Small(nr, nl int) (Dataset, error) {
	if nr < 1 || nr > len(ReceptorCodes) {
		return Dataset{}, fmt.Errorf("data: receptor count %d out of range 1..%d", nr, len(ReceptorCodes))
	}
	if nl < 1 || nl > len(LigandCodes) {
		return Dataset{}, fmt.Errorf("data: ligand count %d out of range 1..%d", nl, len(LigandCodes))
	}
	return Dataset{Receptors: ReceptorCodes[:nr], Ligands: LigandCodes[:nl]}, nil
}

// NumPairs returns the number of receptor-ligand pairs in the sweep.
func (d Dataset) NumPairs() int { return len(d.Receptors) * len(d.Ligands) }

// Pairs enumerates every receptor-ligand pair, ligand-major (all
// receptors for ligand 1, then ligand 2, ...), matching the paper's
// "varying the number of receptors for each ligand".
func (d Dataset) Pairs() []Pair {
	out := make([]Pair, 0, d.NumPairs())
	for _, l := range d.Ligands {
		for _, r := range d.Receptors {
			out = append(out, Pair{Receptor: r, Ligand: l})
		}
	}
	return out
}
