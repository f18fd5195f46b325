// Package vina reproduces AutoDock Vina 1.1.2: the empirical scoring
// function of Trott & Olson (2010) and the iterated-local-search
// Monte Carlo optimizer, SciDock's activity 8b.
package vina

import (
	"fmt"
	"sort"
	"sync"

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

// Scorer evaluates the Vina affinity of a ligand conformation against
// receptor atoms (Vina computes its own internal grids; scoring
// directly over a cell list is numerically equivalent at these
// scales).
//
// Every scoring path reads the pair interactions from the r²-indexed
// radial tables of internal/dock/tables over the packed heavy-atom
// cell walk — squared distances only, no sqrt or exp per pair — and
// per-pose Score is the one-pose case of the walk ScoreBatch runs.
// ScoreAnalytic keeps the closed-form path over the plain neighbour
// list as the golden reference for equivalence tests and benchmarks.
type Scorer struct {
	*ReceptorIndex
	Lig *dock.Ligand

	ligTypes  []chem.TypeParams
	ligIsH    []bool
	interTbl  [][]*tables.Radial // [ligand atom][receptor type index]; nil rows for ligand hydrogens
	frag      []int32            // per ligand atom: its rigid fragment (chem.TorsionTree.RigidUnits)
	nFrag     int                // number of rigid fragments
	intraTbl  []intraPair        // heavy-atom 1-4+ pairs with their tables, grouped by fragment pair
	groups    []intraGroup       // the runs of intraTbl, ascending (a, b)
	rotFactor float64
	intraRef  float64 // internal energy of the input conformation

	// Tolerance-bounded fast path (score_fast.go), built lazily on the
	// first ScoreBatchFast call so exact-only campaigns pay nothing.
	fastOnce sync.Once
	fast     *fastState
}

// ReceptorIndex is the receptor half of a Scorer: the cell lists and
// per-atom parameters that depend on the receptor alone. It is
// read-only once built, so one index serves every ligand docked
// against the receptor, from any number of goroutines at once.
type ReceptorIndex struct {
	Receptor *chem.Molecule

	nl          *dock.NeighborList    // every receptor atom; ScoreAnalytic's walk
	packed      *dock.PackedNeighbors // heavy receptor atoms in span order; every table path's walk
	recTypes    []chem.TypeParams
	recTypeList []chem.AtomType // heavy receptor types in interTbl column order
}

// intraPair is one precomputed intramolecular interaction: the atom
// index pair and the radial table of its type pair.
type intraPair struct {
	i, j int32
	tbl  *tables.Radial
}

// intraGroup is one run of intraTbl: the pairs joining rigid fragments
// a ≤ b (a == b: pairs inside one fragment, whose distance no pose
// changes). A group's sum depends on the coordinates of those two
// fragments alone, which is what makes it a reusable partial of the
// internal energy.
type intraGroup struct {
	a, b   int32
	lo, hi int32 // intraTbl[lo:hi]
}

// interScratch is the stack scratch of one atomInter call chain: the
// span list and one chunk of filtered hits. Callers declare it once
// and lend it to every atom of a walk.
type interScratch struct {
	hits  [64]dock.Hit
	spans [27][2]int32
}

// NewReceptorIndex builds the cell lists over the receptor and
// resolves its per-atom types.
func NewReceptorIndex(receptor *chem.Molecule) (*ReceptorIndex, error) {
	if receptor.NumAtoms() == 0 {
		return nil, fmt.Errorf("vina: receptor %q has no atoms", receptor.Name)
	}
	ix := &ReceptorIndex{
		Receptor: receptor,
		nl:       dock.NewNeighborList(receptor, cutoff),
	}
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
		ix.recTypes = append(ix.recTypes, t.Params())
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
	// Pack the heavy receptor atoms (the only ones that ever score) in
	// span order: position plus table column per 32-byte slot, walked
	// with streaming loads instead of an index-CSR gather.
	ix.packed = dock.NewPackedNeighbors(ix.nl, func(aj int32) int32 { return recTblIdx[aj] })
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
		rotFactor:     1 + wRot*float64(lig.NumTorsions()),
	}
	for i, a := range lig.Mol.Atoms {
		t := a.Type
		if t == "" {
			return nil, fmt.Errorf("vina: ligand %q atom %d untyped", lig.Mol.Name, i)
		}
		s.ligTypes = append(s.ligTypes, t.Params())
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
	s.frag = lig.Tree.RigidUnits(lig.Mol.NumAtoms())
	for _, f := range s.frag {
		s.nFrag = max(s.nFrag, int(f)+1)
	}
	sort.SliceStable(s.intraTbl, func(x, y int) bool {
		ax, bx := s.fragPair(s.intraTbl[x])
		ay, by := s.fragPair(s.intraTbl[y])
		return ax < ay || (ax == ay && bx < by)
	})
	for k, pr := range s.intraTbl {
		a, b := s.fragPair(pr)
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

// fragPair returns the rigid fragments an intramolecular pair joins,
// lower id first — the key intraTbl is grouped by.
func (s *Scorer) fragPair(pr intraPair) (a, b int32) {
	a, b = s.frag[pr.i], s.frag[pr.j]
	if a > b {
		a, b = b, a
	}
	return a, b
}

// intraPairs14 lists ligand atom pairs four or more bonds apart
// (Vina's internal interaction set).
func intraPairs14(m *chem.Molecule) [][2]int {
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
			if dist[v] >= 4 {
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
			if dist[j] < 0 || dist[j] >= 4 {
				pairs = append(pairs, [2]int{src, j})
			}
		}
	}
	return pairs
}

// Score implements dock.Scorer: the Vina affinity in kcal/mol,
// inter-molecular terms divided by the rotatable-bond factor plus a
// damped internal term. Hydrogens are invisible to the Vina function.
// It is the public reference and the test oracle — the search scores
// through the incremental evaluator (evaluator.go), which adds these
// same partial sums in this same order — and the one-pose case of the
// exact kernel: the same candidate spans, radius filter, table read
// and addition order as ScoreBatch. Safe for concurrent use and
// allocation-free: the scorer is read-only and the hit scratch lives
// on the caller's stack.
//
// The summation order is chosen so that partial sums are reusable
// between poses: the inter-molecular energy is Σᵢ sᵢ over heavy ligand
// atoms ascending, each sᵢ (atomInter) a function of atom i's
// coordinates alone; the internal energy is Σ over fragment pairs
// ascending of a per-pair-group sum (groupIntra), each a function of
// its two fragments' coordinates alone.
//
// exact: the reference ScoreBatch is pinned against; float32 belongs in ScoreBatchFast
func (s *Scorer) Score(coords []chem.Vec3) float64 {
	return s.combine(s.interEnergy(coords), s.intraEnergy(coords))
}

// combine folds the two sums into the affinity; the evaluator calls it
// on its reassembled sums so the last operations match Score's too.
//
// exact: Score's closing expression
func (s *Scorer) combine(inter, intra float64) float64 {
	return inter/s.rotFactor + intraWeight*(intra-s.intraRef)
}

// ReportedFEB is the affinity Vina prints for a pose: the
// inter-molecular energy under the rotatable-bond compression, without
// the internal-energy delta used only to steer the optimizer.
func (s *Scorer) ReportedFEB(coords []chem.Vec3) float64 {
	return s.interEnergy(coords) / s.rotFactor
}

// interEnergy sums the pairwise ligand–receptor terms, shared by Score
// and ReportedFEB: Σᵢ sᵢ over heavy ligand atoms in ascending order.
//
// exact: per-atom sums added in atom order, as ScoreBatch adds them
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
// position p: the candidates of PackedNeighbors.Spans — the accessor
// Gather uses, so receptors above and below the fine-cell gate take
// the same branch as the batched kernels — filtered by
// dock.FilterIndexed (a fine-cell list) or dock.FilterSpan (coarse
// spans) and read from the atom's table row in hit order. A candidate
// list is filtered one chunk at a time into the fixed scratch array
// (chunks keep list order and an even length, so the hit sequence is
// the whole list's), which is what keeps a shared scorer free of
// per-call scratch.
//
// exact: same hit order and float64 addition sequence as ScoreBatch's per-(atom, pose) sum
func (s *Scorer) atomInter(i int, p chem.Vec3, scr *interScratch) float64 {
	const cut2 = cutoff * cutoff
	hits := &scr.hits
	row := s.interTbl[i]
	atoms := s.packed.Atoms()
	var sum float64
	fine, ns := s.packed.Spans(p, &scr.spans)
	for at := 0; at < len(fine); at += len(hits) {
		end := min(at+len(hits), len(fine))
		m := dock.FilterIndexed(atoms, fine[at:end], p.X, p.Y, p.Z, cut2, hits[:], 0)
		for _, h := range hits[:m] {
			sum += row[h.Cls].At2(h.R2)
		}
	}
	for _, sp := range scr.spans[:ns] {
		for at := sp[0]; at < sp[1]; at += int32(len(hits)) {
			end := min(at+int32(len(hits)), sp[1])
			m := dock.FilterSpan(atoms[at:end], p.X, p.Y, p.Z, cut2, hits[:], 0)
			for _, h := range hits[:m] {
				sum += row[h.Cls].At2(h.R2)
			}
		}
	}
	return sum
}

// intraEnergy sums the heavy-atom 1-4+ pair terms group by group.
//
// exact: per-group sums added in group order, as ScoreBatch's intraBatch adds them
func (s *Scorer) intraEnergy(coords []chem.Vec3) float64 {
	var intra float64
	for g := range s.groups {
		intra += s.groupIntra(g, coords)
	}
	return intra
}

// groupIntra is the sum of group g's in-cutoff pair terms, in table
// order.
//
// exact: same per-pose addition sequence as intraBatch's per-group sum
func (s *Scorer) groupIntra(g int, coords []chem.Vec3) float64 {
	const cut2 = cutoff * cutoff
	gr := s.groups[g]
	var sum float64
	for _, pr := range s.intraTbl[gr.lo:gr.hi] {
		if r2 := coords[pr.i].Dist2(coords[pr.j]); r2 <= cut2 {
			sum += pr.tbl.At2(r2)
		}
	}
	return sum
}

// ScoreAnalytic is Score evaluated from the closed-form pair potential
// (sqrt + exp per pair) instead of the radial tables: the golden
// reference for the table equivalence tests and the baseline the
// kernel benchmarks report speedups over. It shares intraRef with the
// table path — the reference offset cancels in the internal-energy
// delta, so any table-vs-analytic difference comes from the pair sums
// alone.
func (s *Scorer) ScoreAnalytic(coords []chem.Vec3) float64 {
	return s.interEnergyAnalytic(coords)/s.rotFactor +
		intraWeight*(s.intraEnergyAnalytic(coords)-s.intraRef)
}

func (s *Scorer) interEnergyAnalytic(coords []chem.Vec3) float64 {
	var inter float64
	for i, p := range coords {
		if s.ligIsH[i] {
			continue
		}
		lt := s.ligTypes[i]
		s.nl.ForNeighbors(p, func(j int, r float64) {
			rt := s.recTypes[j]
			if rt.Type == chem.TypeH || rt.Type == chem.TypeHD {
				return
			}
			inter += pairTerm(lt, rt, r)
		})
	}
	return inter
}

func (s *Scorer) intraEnergyAnalytic(coords []chem.Vec3) float64 {
	var intra float64
	for _, pr := range s.intraTbl {
		r := coords[pr.i].Dist(coords[pr.j])
		if r <= cutoff {
			intra += pairTerm(s.ligTypes[pr.i], s.ligTypes[pr.j], r)
		}
	}
	return intra
}

// pairTerm is the Vina pairwise function on the surface distance
// d = r − R_i − R_j; the analytic form lives in internal/dock/tables
// (the single source both this package and the table builder share).
//
// unit: r=Å result=kcal/mol
func pairTerm(a, b chem.TypeParams, r float64) float64 {
	return tables.VinaPair(a, b, r)
}
