// Package ad4 reproduces AutoDock 4.2: the grid-based empirical free
// energy function and the Lamarckian genetic algorithm (LGA) search,
// SciDock's activity 8a.
package ad4

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
	"repro/internal/grid"
)

// Free-energy coefficient set. The shapes follow the AD4.1 force field
// (Morris et al. 1998); magnitudes are calibrated for the synthetic
// Peptidase_CA workload (see DESIGN.md §4 "Chemistry calibration").
const (
	weightVdw    = 0.1662
	weightElec   = 0.1406
	weightDesolv = 0.1322
	weightIntra  = 0.1    // internal energy contribution
	weightTors   = 0.2983 // kcal/mol per rotatable bond
	intraCutoff  = 8.0    //unit: Å
	intraDielec  = 4.0    // constant dielectric for intra Coulomb
	coulombConst = 332.06 // kcal·Å/(mol·e²)
)

// Scorer evaluates the AD4 free energy of binding of a ligand
// conformation against precomputed AutoGrid maps. The intermolecular
// term is grid.Maps.InterAccum over per-atom resolved lattices, and
// the intramolecular term reads the pair potential from the r²-indexed
// radial tables of internal/dock/tables (with the r ≥ 0.5 Å clamp
// baked in), so neither hot loop hashes a map key or takes a sqrt;
// per-pose Score is the one-pose case of the walk ScoreBatch runs.
// ScoreAnalytic keeps the closed-form intramolecular path as the
// golden reference.
type Scorer struct {
	Maps *grid.Maps
	Lig  *dock.Ligand

	atomTypes  []chem.AtomType
	charges    []float64
	intraPairs [][2]int
	intraTbl   []intraPair
	torsTerm   float64

	// Per-atom resolved affinity lattices and pre-scaled charge
	// weights, the arguments of grid.Maps.InterAccum.
	affFld []grid.Field // per ligand atom: its type's affinity lattice
	wq     []float64    // per atom: weightElec · charge
	wdq    []float64    // per atom: weightDesolv · |charge|

	// Tolerance-bounded fast path (score_fast.go), built lazily on the
	// first ScoreBatchFast call so exact-only campaigns pay nothing.
	fastOnce sync.Once
	fast     *fastState
}

// intraPair is one precomputed intramolecular interaction: the atom
// index pair, the radial table of its type pair, and the constant
// Coulomb numerator qi·qj·332.06/ε so the electrostatic part is one
// division by r².
type intraPair struct {
	i, j int32
	tbl  *tables.Radial
	qq   float64
}

// NewScorer prepares per-atom lookups and the intramolecular pair
// list: every pair of atoms three or more bonds apart, including the
// pairs inside one rigid fragment, whose separation no pose changes
// and whose terms therefore sum to a per-ligand constant. AutoDock
// weeds those out of its non-bonded list; intraPairs does not (see
// ROADMAP, trajectory epoch 3 candidates).
func NewScorer(maps *grid.Maps, lig *dock.Ligand) (*Scorer, error) {
	s := &Scorer{Maps: maps, Lig: lig}
	for i, a := range lig.Mol.Atoms {
		t := a.Type
		if t == "" {
			return nil, fmt.Errorf("ad4: ligand %q atom %d untyped (preparation missing)", lig.Mol.Name, i)
		}
		s.atomTypes = append(s.atomTypes, t)
		s.charges = append(s.charges, a.Charge)
		fld, err := maps.AffinityField(t)
		if err != nil {
			return nil, fmt.Errorf("ad4: %w", err)
		}
		s.affFld = append(s.affFld, fld)
		s.wq = append(s.wq, weightElec*a.Charge)
		s.wdq = append(s.wdq, weightDesolv*math.Abs(a.Charge))
	}
	s.intraPairs = intraPairs(lig.Mol)
	for _, pr := range s.intraPairs {
		i, j := pr[0], pr[1]
		s.intraTbl = append(s.intraTbl, intraPair{
			i: int32(i), j: int32(j),
			tbl: tables.AD4Pair(s.atomTypes[i], s.atomTypes[j]),
			qq:  coulombConst * s.charges[i] * s.charges[j] / intraDielec,
		})
	}
	s.torsTerm = weightTors * float64(lig.NumTorsions())
	return s, nil
}

// intraPairs returns atom index pairs with bond-graph distance ≥ 3
// (1-4 interactions and beyond), the set AutoDock scores internally.
func intraPairs(m *chem.Molecule) [][2]int {
	n := m.NumAtoms()
	adj := m.Adjacency()
	var pairs [][2]int
	dist := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] >= 3 {
				continue
			}
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for j := src + 1; j < n; j++ {
			if dist[j] < 0 || dist[j] >= 3 {
				pairs = append(pairs, [2]int{src, j})
			}
		}
	}
	return pairs
}

// Score implements dock.Scorer: intermolecular grid terms plus the
// internal energy and the torsional entropy penalty. This is the
// search objective; the FEB printed into DLG files comes from
// ReportedFEB, which — like the real AutoDock — excludes the ligand's
// internal energy. It is the one-pose case of the exact kernel — the
// same grid.Maps.InterAccum stencil and the same table read and
// addition order as ScoreBatch — safe for concurrent use and
// allocation-free.
//
// exact: the reference ScoreBatch is pinned against; float32 belongs in ScoreBatchFast
func (s *Scorer) Score(coords []chem.Vec3) float64 {
	inter := s.interEnergy(coords)
	return inter + weightIntra*s.intra(coords) + s.torsTerm
}

// ReportedFEB is the estimated free energy of binding AutoDock prints:
// the intermolecular energy plus the torsional penalty, excluding the
// conformation's internal energy (which cancels against the unbound
// reference in AD4's thermodynamic cycle).
func (s *Scorer) ReportedFEB(coords []chem.Vec3) float64 {
	return s.interEnergy(coords) + s.torsTerm
}

// interEnergy is ScoreBatch's intermolecular walk over a batch of one:
// InterAccum with stride 1 over one-element component slices, atoms
// ascending, all three weighted terms of an atom added to the one
// running sum in vdW/electrostatic/desolvation order.
//
// exact: same float64 addition sequence as ScoreBatch
func (s *Scorer) interEnergy(coords []chem.Vec3) float64 {
	var inter [1]float64
	for i, p := range coords {
		x, y, z := [1]float64{p.X}, [1]float64{p.Y}, [1]float64{p.Z}
		s.Maps.InterAccum(s.affFld[i], x[:], y[:], z[:], 1,
			weightVdw, s.wq[i], s.wdq[i], inter[:])
	}
	return inter[0]
}

// exact: same per-pose addition sequence as ScoreBatch's intraBatch
func (s *Scorer) intra(coords []chem.Vec3) float64 {
	const cut2 = intraCutoff * intraCutoff
	var e float64
	for _, pr := range s.intraTbl {
		r2 := coords[pr.i].Dist2(coords[pr.j])
		if r2 > cut2 {
			continue
		}
		if r2 < tables.RMin2 {
			r2 = tables.RMin2 // AutoDock's r ≥ 0.5 Å clamp, in r² space
		}
		e += pr.tbl.At2(r2) + pr.qq/r2
	}
	return e
}

// ScoreAnalytic is Score with the intramolecular term evaluated from
// the closed-form pair potential (sqrt per pair) instead of the radial
// tables: the golden reference for the table equivalence tests and the
// baseline the kernel benchmarks report speedups over.
func (s *Scorer) ScoreAnalytic(coords []chem.Vec3) float64 {
	return s.interEnergy(coords) + weightIntra*s.intraAnalytic(coords) + s.torsTerm
}

func (s *Scorer) intraAnalytic(coords []chem.Vec3) float64 {
	var e float64
	for _, pr := range s.intraPairs {
		i, j := pr[0], pr[1]
		r := coords[i].Dist(coords[j])
		if r > intraCutoff {
			continue
		}
		if r < 0.5 {
			r = 0.5
		}
		e += grid.PairEnergy(s.atomTypes[i].Params(), s.atomTypes[j].Params(), r)
		e += coulombConst * s.charges[i] * s.charges[j] / (intraDielec * r * r)
	}
	return e
}
