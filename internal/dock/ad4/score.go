// Package ad4 reproduces AutoDock 4.2: the grid-based empirical free
// energy function and the Lamarckian genetic algorithm (LGA) search,
// SciDock's activity 8a.
package ad4

import (
	"fmt"
	"math"

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
// term is grid.Maps.InterPose over per-atom resolved lattices, and the
// intramolecular term reads the pair potential from the r²-indexed
// radial tables of internal/dock/tables (with the r ≥ 0.5 Å clamp
// baked in), so neither hot loop hashes a map key or takes a sqrt. The
// closed-form intramolecular path survives as the tests' oracle.
type Scorer struct {
	Maps *grid.Maps
	Lig  *dock.Ligand

	intraTbl []intraPair
	torsTerm float64

	// Per-atom resolved affinity lattices and pre-scaled charge
	// weights, the arguments of grid.Maps.InterPose.
	affFld []grid.Field // per ligand atom: its type's affinity lattice
	wq     []float64    // per atom: weightElec · charge
	wdq    []float64    // per atom: weightDesolv · |charge|
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
		fld, err := maps.AffinityField(t)
		if err != nil {
			return nil, fmt.Errorf("ad4: %w", err)
		}
		s.affFld = append(s.affFld, fld)
		s.wq = append(s.wq, weightElec*a.Charge)
		s.wdq = append(s.wdq, weightDesolv*math.Abs(a.Charge))
	}
	for _, pr := range intraPairs(lig.Mol) {
		ai, aj := &lig.Mol.Atoms[pr[0]], &lig.Mol.Atoms[pr[1]]
		s.intraTbl = append(s.intraTbl, intraPair{
			i: int32(pr[0]), j: int32(pr[1]),
			tbl: tables.AD4Pair(ai.Type, aj.Type),
			qq:  coulombConst * ai.Charge * aj.Charge / intraDielec,
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
	queue := make([]int, 0, n) // one BFS queue, reused from source to source
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
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
// internal energy. Safe for concurrent use and allocation-free.
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

// interEnergy is the intermolecular term of one pose:
// grid.Maps.InterPose — atoms ascending, all three weighted terms of an
// atom added to the one running sum in vdW/electrostatic/desolvation
// order.
func (s *Scorer) interEnergy(coords []chem.Vec3) float64 {
	return s.Maps.InterPose(coords, s.affFld, weightVdw, s.wq, s.wdq)
}

// intra is the intramolecular term of one pose: the in-cutoff pair
// terms added in table order, r² clamped at AutoDock's r ≥ 0.5 Å.
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
