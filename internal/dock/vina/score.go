// Package vina reproduces AutoDock Vina 1.1.2: the empirical scoring
// function of Trott & Olson (2010) and the iterated-local-search
// Monte Carlo optimizer, SciDock's activity 8b.
package vina

import (
	"fmt"
	"sort"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
)

// Vina scoring-function weights (Trott & Olson 2010, Table 1). The
// pairwise term weights live in internal/dock/tables (shared with the
// radial table builder); here are only the ones the scorer applies
// outside the pair function.
const (
	wRot        = +0.05846      // conformational entropy denominator weight
	cutoff      = tables.Cutoff // Å
	intraWeight = 0.3           // internal contribution to the reported affinity
)

// Vina 1.1.2's hunt_cap: the caps under which its Monte Carlo search's
// local optimisations run (energyGrad with hunt set). A positive
// receptor sum of one ligand atom, or a positive intramolecular pair
// term, e becomes e·v/(v + e), which saturates at v, and its gradient
// is scaled by (v/(v + e))², as Vina's curl does.
const (
	huntCapInter = 1.5 // kcal/mol, per heavy ligand atom
	huntCapIntra = 10  // kcal/mol, per intramolecular pair
)

// Scorer evaluates the Vina affinity of a ligand conformation against
// receptor atoms (Vina computes its own internal grids; scoring
// directly over a cell list is numerically equivalent at these
// scales).
//
// Score reads the pair interactions from the r²-indexed radial tables
// of internal/dock/tables over the packed heavy-atom cell walk —
// squared distances only, no sqrt or exp per pair. The closed-form
// path survives as the tests' oracle.
type Scorer struct {
	*ReceptorIndex
	Lig *dock.Ligand

	ligIsH    []bool
	interTbl  [][]*tables.Radial // [ligand atom][receptor type index]; nil rows for ligand hydrogens
	intraTbl  []intraPair        // heavy-atom 1-4+ pairs with their tables, grouped by fragment pair
	groups    []intraGroup       // the runs of intraTbl, ascending (a, b)
	rotFactor float64
	intraRef  float64 // internal energy of the input conformation
}

// ReceptorIndex is the receptor half of a Scorer: the cell lists and
// per-atom parameters that depend on the receptor alone. It is
// read-only once built, so one index serves every ligand docked
// against the receptor, from any number of goroutines at once.
type ReceptorIndex struct {
	Receptor *chem.Molecule

	packed      *dock.PackedNeighbors // heavy receptor atoms, Score's walk
	recTypeList []chem.AtomType       // heavy receptor types in interTbl column order
}

// intraPair is one precomputed intramolecular interaction: the atom
// index pair and the radial table of its type pair.
type intraPair struct {
	i, j int32
	tbl  *tables.Radial
}

// intraGroup is one run of intraTbl: the pairs joining rigid fragments
// a ≤ b (a == b: pairs inside one fragment, whose distance no pose
// changes). The groups fix the order the internal energy is summed in.
type intraGroup struct {
	a, b   int32
	lo, hi int32 // intraTbl[lo:hi]
}

// interScratch is the stack scratch of one atomInter call chain: one
// chunk of filtered hits. Callers declare it once and lend it to every
// atom of a walk.
type interScratch struct {
	hits [64]dock.Hit
}

// NewReceptorIndex builds the cell lists over the receptor and
// resolves its per-atom types.
func NewReceptorIndex(receptor *chem.Molecule) (*ReceptorIndex, error) {
	if receptor.NumAtoms() == 0 {
		return nil, fmt.Errorf("vina: receptor %q has no atoms", receptor.Name)
	}
	ix := &ReceptorIndex{Receptor: receptor}
	// Dense index of receptor atom types so the inner loop can pick a
	// table with one slice lookup. Hydrogens are invisible to the Vina
	// function, so they get index -1 and no tables.
	recTypeIdx := make(map[chem.AtomType]int32)
	recTblIdx := make([]int32, 0, len(receptor.Atoms)) // per receptor atom: column into interTbl rows
	for i, a := range receptor.Atoms {
		t := a.Type
		if t == "" {
			t = chem.TypeForElement(a.Element)
		}
		if !t.Params().Supported {
			return nil, fmt.Errorf("vina: receptor %q atom %d type %s unsupported", receptor.Name, i, t)
		}
		if t == chem.TypeH || t == chem.TypeHD {
			recTblIdx = append(recTblIdx, -1)
			continue
		}
		ti, ok := recTypeIdx[t]
		if !ok {
			ti = int32(len(ix.recTypeList))
			recTypeIdx[t] = ti
			ix.recTypeList = append(ix.recTypeList, t)
		}
		recTblIdx = append(recTblIdx, ti)
	}
	// Pack the heavy receptor atoms (the only ones that ever score):
	// position plus table column per 32-byte slot.
	ix.packed = dock.NewPackedNeighbors(receptor, cutoff, func(aj int32) int32 { return recTblIdx[aj] })
	return ix, nil
}

// NewScorer indexes the receptor and precomputes per-atom parameters
// and the radial tables for every (ligand type, receptor type) pair in
// play.
func NewScorer(receptor *chem.Molecule, lig *dock.Ligand) (*Scorer, error) {
	ix, err := NewReceptorIndex(receptor)
	if err != nil {
		return nil, err
	}
	return ix.NewScorer(lig)
}

// NewScorer adds the ligand half to the index: per-atom parameters,
// the radial tables of every (ligand type, receptor type) pair in play
// and the intramolecular pair list.
func (ix *ReceptorIndex) NewScorer(lig *dock.Ligand) (*Scorer, error) {
	s := &Scorer{
		ReceptorIndex: ix,
		Lig:           lig,
		rotFactor:     1 + float64(wRot*float64(lig.NumTorsions())),
	}
	for i, a := range lig.Mol.Atoms {
		t := a.Type
		if t == "" {
			return nil, fmt.Errorf("vina: ligand %q atom %d untyped", lig.Mol.Name, i)
		}
		s.ligIsH = append(s.ligIsH, !a.Element.IsHeavy())
		var row []*tables.Radial
		if a.Element.IsHeavy() {
			row = make([]*tables.Radial, len(ix.recTypeList))
			for ti, rt := range ix.recTypeList {
				row[ti] = tables.Vina(t, rt)
			}
		}
		s.interTbl = append(s.interTbl, row)
	}
	for _, pr := range intraPairs14(lig.Mol) {
		i, j := pr[0], pr[1]
		if s.ligIsH[i] || s.ligIsH[j] {
			continue
		}
		s.intraTbl = append(s.intraTbl, intraPair{
			i: int32(i), j: int32(j),
			tbl: tables.Vina(lig.Mol.Atoms[i].Type, lig.Mol.Atoms[j].Type),
		})
	}
	// Group the pairs by the rigid fragments they join; the stable sort
	// keeps intraPairs14's order inside a group, so the addition order
	// is a function of the ligand alone.
	frag := lig.Owners()
	sort.SliceStable(s.intraTbl, func(x, y int) bool {
		ax, bx := fragPair(frag, s.intraTbl[x])
		ay, by := fragPair(frag, s.intraTbl[y])
		return ax < ay || (ax == ay && bx < by)
	})
	for k, pr := range s.intraTbl {
		a, b := fragPair(frag, pr)
		if n := len(s.groups); n > 0 && s.groups[n-1].a == a && s.groups[n-1].b == b {
			s.groups[n-1].hi = int32(k + 1)
			continue
		}
		s.groups = append(s.groups, intraGroup{a: a, b: b, lo: int32(k), hi: int32(k + 1)})
	}
	// Vina reports affinities relative to the internal energy of the
	// unbound conformation, so a ligand floating free scores ~0.
	s.intraRef = s.intraEnergy(lig.Reference())
	return s, nil
}

// fragPair returns the rigid fragments (frag: per atom, its
// dock.Ligand.Owners frame) an intramolecular pair joins, lower id
// first — the key intraTbl is grouped by.
func fragPair(frag []int32, pr intraPair) (a, b int32) {
	a, b = frag[pr.i], frag[pr.j]
	if a > b {
		a, b = b, a
	}
	return a, b
}

// intraPairs14 lists ligand atom pairs four or more bonds apart
// (Vina's internal interaction set).
func intraPairs14(m *chem.Molecule) [][2]int { return m.PairsApart(4) }

// Score implements dock.Scorer: the Vina affinity in kcal/mol,
// inter-molecular terms divided by the rotatable-bond factor plus a
// damped internal term. Hydrogens are invisible to the Vina function.
// It is the public reference; the search scores through energyGrad,
// which adds the same terms in the same order and so returns the same
// bits. Safe for concurrent use and allocation-free: the scorer is
// read-only and the hit scratch lives on the caller's stack.
//
// The inter-molecular energy is Σᵢ sᵢ over heavy ligand atoms
// ascending, each sᵢ (atomInter) a function of atom i's coordinates
// alone; the internal energy is Σ over fragment pairs ascending of a
// per-pair-group sum (groupIntra).
func (s *Scorer) Score(coords []chem.Vec3) float64 {
	return s.combine(s.interEnergy(coords), s.intraEnergy(coords))
}

// combine folds the two sums into the affinity; energyGrad calls it on
// its own sums so the last operations match Score's too.
func (s *Scorer) combine(inter, intra float64) float64 {
	return inter/s.rotFactor + float64(intraWeight*(intra-s.intraRef))
}

// ReportedFEB is the affinity Vina prints for a pose: the
// inter-molecular energy under the rotatable-bond compression, without
// the internal-energy delta used only to steer the optimizer.
func (s *Scorer) ReportedFEB(coords []chem.Vec3) float64 {
	return s.interEnergy(coords) / s.rotFactor
}

// interEnergy sums the pairwise ligand–receptor terms, shared by Score
// and ReportedFEB: Σᵢ sᵢ over heavy ligand atoms in ascending order.
func (s *Scorer) interEnergy(coords []chem.Vec3) float64 {
	var scr interScratch
	var inter float64
	for i, p := range coords {
		if s.ligIsH[i] {
			continue
		}
		inter += s.atomInter(i, p, &scr)
	}
	return inter
}

// atomInter is sᵢ, heavy ligand atom i's own sum of receptor terms at
// position p: the candidates of PackedNeighbors.Candidates, filtered
// by dock.FilterIndexed and read from the atom's table row in hit
// order — ascending packed order. The candidate list is filtered one
// chunk at a time into the fixed scratch array (chunks keep list
// order, so the hit sequence is the whole list's), which is what keeps
// a shared scorer free of per-call scratch.
func (s *Scorer) atomInter(i int, p chem.Vec3, scr *interScratch) float64 {
	const cut2 = cutoff * cutoff
	hits := &scr.hits
	row := s.interTbl[i]
	atoms := s.packed.Atoms()
	var sum float64
	cand := s.packed.Candidates(p)
	for at := 0; at < len(cand); at += len(hits) {
		end := min(at+len(hits), len(cand))
		m := dock.FilterIndexed(atoms, cand[at:end], p.X, p.Y, p.Z, cut2, hits[:], 0)
		for _, h := range hits[:m] {
			sum += row[h.Cls].At2(h.R2)
		}
	}
	return sum
}

// intraEnergy sums the heavy-atom 1-4+ pair terms, each group's sum
// (groupIntra) added in group order.
func (s *Scorer) intraEnergy(coords []chem.Vec3) float64 {
	var intra float64
	for g := range s.groups {
		intra += s.groupIntra(g, coords)
	}
	return intra
}

// groupIntra is the sum of group g's in-cutoff pair terms, in table
// order.
func (s *Scorer) groupIntra(g int, coords []chem.Vec3) float64 {
	const cut2 = cutoff * cutoff
	gr := s.groups[g]
	var sum float64
	for _, pr := range s.intraTbl[gr.lo:gr.hi] {
		if r2 := dist2(coords[pr.i], coords[pr.j]); r2 <= cut2 {
			sum += pr.tbl.At2(r2)
		}
	}
	return sum
}

// energyGrad returns Score(coords), bit for bit, and writes dE/dxᵢ of
// every ligand atom into grad (zero for hydrogens), the gradient Vina's
// local optimizer descends. The energy is assembled exactly as Score
// assembles it: the same candidates in the same order, the same r², the
// same table values, the same group order and combine. Each table term
// v(r²) contributes dv/dr²·2(xᵢ − a) to atom i's gradient, scaled by
// 1/rotFactor for the receptor terms and by the internal weight, with
// opposite signs on the two atoms, for the intramolecular ones. Both
// loops read v and dv/dr² as At2D's bits, through the inlined
// At2DOctave from RMin² on.
//
// With hunt set it is instead the energy and gradient of Vina's capped
// search potential: each positive atom sum and each positive pair term
// is curled under huntCapInter and huntCapIntra before it is added.
//
// exact: energy bit-equal to Score when hunt is false
func (s *Scorer) energyGrad(coords, grad []chem.Vec3, hunt bool) float64 {
	var scr interScratch
	var inter float64
	scale := 2 / s.rotFactor
	for i, p := range coords {
		if s.ligIsH[i] {
			grad[i] = chem.Vec3{}
			continue
		}
		e, g := s.atomInterGrad(i, p, &scr)
		gs := scale
		if hunt && e > 0 {
			e, gs = curl(e, scale, huntCapInter)
		}
		inter += e
		grad[i] = chem.V(float64(gs*g.X), float64(gs*g.Y), float64(gs*g.Z))
	}
	const cut2 = cutoff * cutoff
	var intra float64
	for _, gr := range s.groups {
		var sum float64
		for _, pr := range s.intraTbl[gr.lo:gr.hi] {
			xi, xj := coords[pr.i], coords[pr.j]
			if r2 := dist2(xi, xj); r2 <= cut2 {
				var v, dv float64
				if r2 < tables.RMin2 {
					v, dv = pr.tbl.At2D(r2)
				} else {
					v, dv = pr.tbl.At2DOctave(r2)
				}
				if hunt && v > 0 {
					v, dv = curl(v, dv, huntCapIntra)
				}
				sum += v
				f := float64(2*intraWeight) * dv
				d := chem.V(float64(f*(xi.X-xj.X)), float64(f*(xi.Y-xj.Y)), float64(f*(xi.Z-xj.Z)))
				grad[pr.i] = grad[pr.i].Add(d)
				grad[pr.j] = grad[pr.j].Sub(d)
			}
		}
		intra += sum
	}
	return s.combine(inter, intra)
}

// curl is Vina's curl of a positive energy e with slope factor d under
// the cap v: e·t and d·t², with t = v/(v + e).
func curl(e, d, v float64) (float64, float64) {
	t := v / (v + e)
	return float64(e * t), float64(float64(d*t) * t)
}

// atomInterGrad is atomInter at p together with Σ dv/dr²·(p − a) over
// the same hits of the same dock.FilterIndexed walk, so the sum is
// atomInter's bit for bit. The filter is branch-free; the hit loop
// reads each hit's atom back through its packed index, and its value
// and slope through the inlined At2DOctave from RMin² on (At2D's bits
// with no call per hit), only a deep clash calling At2D.
func (s *Scorer) atomInterGrad(i int, p chem.Vec3, scr *interScratch) (float64, chem.Vec3) {
	const cut2 = cutoff * cutoff
	hits := &scr.hits
	row := s.interTbl[i]
	atoms := s.packed.Atoms()
	var sum, gx, gy, gz float64
	cand := s.packed.Candidates(p)
	for at := 0; at < len(cand); at += len(hits) {
		end := min(at+len(hits), len(cand))
		m := dock.FilterIndexed(atoms, cand[at:end], p.X, p.Y, p.Z, cut2, hits[:], 0)
		for _, h := range hits[:m] {
			var v, dv float64
			if h.R2 < tables.RMin2 {
				v, dv = row[h.Cls].At2D(h.R2)
			} else {
				v, dv = row[h.Cls].At2DOctave(h.R2)
			}
			sum += v
			a := &atoms[h.Idx]
			gx += float64(dv * (p.X - a.X))
			gy += float64(dv * (p.Y - a.Y))
			gz += float64(dv * (p.Z - a.Z))
		}
	}
	return sum, chem.V(gx, gy, gz)
}

// dist2 is |a − b|², summed over x, y and z as chem.Vec3.Dist2 does,
// every product rounded on its own: the r² of every intramolecular
// pair, in Score and in energyGrad alike.
func dist2(a, b chem.Vec3) float64 {
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}
