package dock

import (
	"fmt"
	"sort"

	"repro/internal/chem"
	"repro/internal/chem/formats"
)

// Scorer evaluates the docking energy (kcal/mol, lower is better) of a
// materialized ligand conformation. Both engines implement it — AD4
// over precomputed grid maps, Vina over receptor atom pairs.
type Scorer interface {
	// Score returns the estimated free energy of binding for the
	// given ligand atom coordinates.
	Score(coords []chem.Vec3) float64
}

// RunResult is the outcome of one independent docking run.
type RunResult struct {
	Run  int
	Pose Pose
	FEB  float64 // kcal/mol
	RMSD float64 // Å vs the engine's reference convention
}

// Result is a complete docking of one receptor-ligand pair.
type Result struct {
	Program  string
	Receptor string
	Ligand   string
	Seed     int64
	Runs     []RunResult
	// Stats counts the work the search did. It is read-only reporting
	// for tests, examples and benchmarks: no DLG, staged file or
	// provenance row carries it.
	Stats Stats
}

// Stats counts the work of one docking. The engines sum it per chain
// (Vina) or run (AD4) in index order, so it is the same for any worker
// count. AD4 fills Evaluations only.
type Stats struct {
	// Evaluations is the number of poses scored; for Vina, each is one
	// energy-plus-gradient evaluation.
	Evaluations int64
	// LocalIterations is the number of accepted quasi-Newton steps of
	// Vina's local optimizations.
	LocalIterations int64
	// LocalOptimizations is the number of Vina's local optimizations,
	// on the capped and the authentic potential alike.
	LocalOptimizations int64
	// Stalled is the number of those the stall stop ended: their last
	// accepted steps gained too little to go on.
	Stalled int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Evaluations += o.Evaluations
	s.LocalIterations += o.LocalIterations
	s.LocalOptimizations += o.LocalOptimizations
	s.Stalled += o.Stalled
}

// Best returns the run with the lowest FEB.
func (r *Result) Best() (RunResult, error) {
	if len(r.Runs) == 0 {
		return RunResult{}, fmt.Errorf("dock: %s/%s produced no runs", r.Receptor, r.Ligand)
	}
	best := r.Runs[0]
	for _, run := range r.Runs[1:] {
		if run.FEB < best.FEB {
			best = run
		}
	}
	return best, nil
}

// SortByFEB orders runs most-favourable first.
func (r *Result) SortByFEB() {
	sort.Slice(r.Runs, func(i, j int) bool { return r.Runs[i].FEB < r.Runs[j].FEB })
}

// ToDLG converts the result into the DLG document written to the
// shared file system and mined by the provenance extractors. Without
// a conformational analysis every run is its own cluster; use
// ToDLGWithClusters for the full AutoDock clustering histogram.
func (r *Result) ToDLG() *formats.DLG {
	d := &formats.DLG{
		Program:  r.Program,
		Receptor: r.Receptor,
		Ligand:   r.Ligand,
		Seed:     r.Seed,
	}
	for _, run := range r.Runs {
		d.Runs = append(d.Runs, formats.DLGRun{
			Run:      run.Run,
			FEB:      run.FEB,
			RMSD:     run.RMSD,
			ClusterN: 1,
		})
	}
	return d
}

// ToDLGWithClusters runs AutoDock's conformational cluster analysis
// at the given RMSD tolerance (AD4's default is 2.0 Å), writes the
// resulting cluster sizes into the DLG histogram and embeds the best
// run's docked conformation as DOCKED records.
func (r *Result) ToDLGWithClusters(lig *Ligand, tol float64) (*formats.DLG, error) {
	clusters, err := ClusterRuns(lig, r.Runs, tol)
	if err != nil {
		return nil, err
	}
	sizes := AnnotateClusters(r.Runs, clusters)
	d := r.ToDLG()
	for i := range d.Runs {
		d.Runs[i].ClusterN = sizes[i]
	}
	if best, err := r.Best(); err == nil {
		mol := lig.Mol.Clone()
		mol.SetPositions(lig.Coords(best.Pose))
		d.Docked = mol
	}
	return d, nil
}
