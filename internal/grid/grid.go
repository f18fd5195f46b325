// Package grid reproduces AutoGrid 4 (SciDock activity 5): it
// precomputes, for a rigid receptor, one affinity map per ligand atom
// type plus electrostatic and desolvation maps on a regular lattice,
// and serves trilinearly interpolated lookups to the AutoDock 4
// docking engine.
//
// Map generation is the workflow's first hot path: every lattice point
// visits every receptor atom within the cutoff. The production path
// (Generate) therefore reads all pair potentials from the radial
// r²-indexed tables of internal/dock/tables — no sqrt, exp, or pow in
// the inner loop — and fans the z-slab loop out over a bounded worker
// pool. The decomposition is fixed by the Spec (one task per z slab,
// every point written exactly once), so output is bit-identical
// regardless of worker count. GenerateReference keeps the serial
// analytic path as the golden reference for equivalence tests and the
// kernel benchmarks.
package grid

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/dock/tables"
	"repro/internal/parallel"
)

// Spec describes the lattice: centre, points per axis and spacing, the
// same fields the GPF carries.
type Spec struct {
	Center  chem.Vec3
	NPts    [3]int // points per dimension
	Spacing float64
}

// Origin returns the position of grid node (0,0,0).
func (s Spec) Origin() chem.Vec3 {
	return s.Center.Sub(chem.V(
		float64(s.NPts[0]-1)/2*s.Spacing,
		float64(s.NPts[1]-1)/2*s.Spacing,
		float64(s.NPts[2]-1)/2*s.Spacing,
	))
}

// NumPoints returns the total lattice size.
func (s Spec) NumPoints() int { return s.NPts[0] * s.NPts[1] * s.NPts[2] }

// Validate checks the spec is usable.
func (s Spec) Validate() error {
	for i, n := range s.NPts {
		if n < 2 {
			return fmt.Errorf("grid: npts[%d] = %d, need ≥ 2", i, n)
		}
	}
	if s.Spacing <= 0 {
		return fmt.Errorf("grid: spacing %v must be positive", s.Spacing)
	}
	return nil
}

// OutOfBoxPenalty is the energy returned for lookups outside the grid
// box, mirroring AutoDock's wall behaviour that confines the search.
const OutOfBoxPenalty = 1e4

// EnergyClamp caps per-point map values so close contacts do not
// produce infinities (AutoGrid clamps at 100,000).
const energyClamp = 1e5

// interactionCutoff is the non-bonded cutoff in Å (AutoGrid uses 8 Å).
const interactionCutoff = tables.Cutoff

// smoothRadius is AutoGrid's default potential smoothing (the GPF
// "smooth 0.5" keyword); see tables.SmoothRadius.
const smoothRadius = tables.SmoothRadius

// Maps holds every precomputed map for one receptor.
type Maps struct {
	Spec     Spec
	Receptor string
	affinity map[chem.AtomType][]float64
	elec     []float64
	desolv   []float64

	// Per-affinity-type interleaved [affinity, elec, desolv] float32
	// lattices, built lazily for the tolerance fast path: the three
	// lattices share every trilinear stencil, so interleaving them puts
	// all three values of a corner pair in one contiguous 24-byte read
	// — a quarter of the cache lines the separate lattices touch. The
	// float64 lattices are narrowed to float32 exactly as the fast
	// lerp would, so interleaving does not change any fast-path value.
	// See InterAccumFast.
	aedOnce   sync.Once
	aedTriple map[chem.AtomType][]float32
}

// fastTriple returns the interleaved [affinity, elec, desolv] lattice
// of an affinity type, building all of them on first use.
func (m *Maps) fastTriple(t chem.AtomType) []float32 {
	m.aedOnce.Do(func() {
		m.aedTriple = make(map[chem.AtomType][]float32, len(m.affinity))
		for ty, aff := range m.affinity {
			tr := make([]float32, 3*len(aff))
			for k, v := range aff {
				tr[3*k] = float32(v)
				tr[3*k+1] = float32(m.elec[k])
				tr[3*k+2] = float32(m.desolv[k])
			}
			m.aedTriple[ty] = tr
		}
	})
	return m.aedTriple[t]
}

// Types returns the atom types with affinity maps in sorted order, so
// everything downstream of the map keys — the .fld index WriteFLD
// emits, the per-type map files scidock writes — is byte-identical
// across runs. (Ranging the map directly here leaked Go's randomized
// iteration order into output files; scilint's detflow taint analysis
// caught it.)
func (m *Maps) Types() []chem.AtomType {
	out := make([]chem.AtomType, 0, len(m.affinity))
	for t := range m.affinity {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subset returns a view of m restricted to the given probe types: a
// Maps whose Types, WriteFLD, WriteMap and AffinityField see exactly
// those types (duplicates collapse) while every lattice, elec and
// desolv included, is m's own backing array — nothing is copied. A
// lattice does not depend on which other probes rode its Generate pass
// (slab accumulates each probe over the same atom sequence), so a view
// is bit-equal to a set generated for exactly these types. Asking for
// a type m lacks is an error.
func (m *Maps) Subset(types []chem.AtomType) (*Maps, error) {
	v := &Maps{
		Spec: m.Spec, Receptor: m.Receptor,
		affinity: make(map[chem.AtomType][]float64, len(types)),
		elec:     m.elec,
		desolv:   m.desolv,
	}
	for _, t := range types {
		sl, ok := m.affinity[t]
		if !ok {
			return nil, fmt.Errorf("grid: no %s map for receptor %s", t, m.Receptor)
		}
		v.affinity[t] = sl
	}
	return v, nil
}

// newMaps validates the inputs and allocates the map storage, returning
// the deduplicated probe list in first-seen order (deterministic, so
// slab workers and the reference path agree on slice identity).
func newMaps(receptor *chem.Molecule, spec Spec, types []chem.AtomType) (*Maps, []chem.AtomType, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if receptor.NumAtoms() == 0 {
		return nil, nil, fmt.Errorf("grid: receptor %q has no atoms", receptor.Name)
	}
	for _, t := range types {
		if !t.Params().Supported {
			return nil, nil, fmt.Errorf("grid: probe type %s has no parameters", t)
		}
	}
	for i, a := range receptor.Atoms {
		if !a.Element.Info().DockSupported {
			return nil, nil, fmt.Errorf("grid: receptor %q atom %d (%s) unsupported",
				receptor.Name, i, a.Element)
		}
	}
	n := spec.NumPoints()
	m := &Maps{
		Spec: spec, Receptor: receptor.Name,
		affinity: make(map[chem.AtomType][]float64, len(types)),
		elec:     make([]float64, n),
		desolv:   make([]float64, n),
	}
	var probes []chem.AtomType
	for _, t := range types {
		if _, dup := m.affinity[t]; dup {
			continue
		}
		m.affinity[t] = make([]float64, n)
		probes = append(probes, t)
	}
	return m, probes, nil
}

// receptorAtomType resolves the AD4 type of a receptor atom, falling
// back to the element default when preparation left it untyped.
func receptorAtomType(a *chem.Atom) chem.AtomType {
	if a.Type != "" {
		return a.Type
	}
	return chem.TypeForElement(a.Element)
}

// generator carries the shared read-only state of one table-backed map
// generation; slab workers write disjoint index ranges of the maps.
type generator struct {
	spec        Spec
	origin      chem.Vec3
	cells       *dock.NeighborList
	charge      []float64          // per receptor atom
	dcoef       []float64          // per receptor atom, desolvation prefactor
	typeIdx     []int32            // per receptor atom, index into pairTbl rows
	pairTbl     [][]*tables.Radial // [receptor type][probe] smoothed AD4 tables
	elecTbl     *tables.Radial
	desolvTbl   *tables.Radial
	elec        []float64
	desolv      []float64
	probeSlices [][]float64
}

// slab fills every map value of z-plane k. affin is the worker's
// reusable per-point accumulator, hoisted out of the triple loop; the
// neighbour walk iterates the CSR spans directly so the per-atom loop
// body is call-free.
func (g *generator) slab(k int, affin []float64) {
	const cut2 = interactionCutoff * interactionCutoff
	nx, ny := g.spec.NPts[0], g.spec.NPts[1]
	idx := k * nx * ny
	z := g.origin.Z + float64(k)*g.spec.Spacing
	cellIdx, atoms := g.cells.Indices(), g.cells.Positions()
	var spans [27][2]int32
	for j := 0; j < ny; j++ {
		y := g.origin.Y + float64(j)*g.spec.Spacing
		for i := 0; i < nx; i++ {
			p := chem.V(g.origin.X+float64(i)*g.spec.Spacing, y, z)
			var elec, desolv float64
			for pi := range affin {
				affin[pi] = 0
			}
			ns := g.cells.Spans(p, &spans)
			for s := 0; s < ns; s++ {
				for _, ai := range cellIdx[spans[s][0]:spans[s][1]] {
					r2 := atoms[ai].Dist2(p)
					if r2 > cut2 {
						continue
					}
					elec += g.charge[ai] * g.elecTbl.At2(r2)
					desolv += g.dcoef[ai] * g.desolvTbl.At2(r2)
					for pi, tbl := range g.pairTbl[g.typeIdx[ai]] {
						affin[pi] += tbl.At2(r2)
					}
				}
			}
			g.elec[idx] = clamp(elec)
			g.desolv[idx] = clamp(desolv)
			for pi := range affin {
				g.probeSlices[pi][idx] = clamp(affin[pi])
			}
			idx++
		}
	}
}

// Generate runs AutoGrid: for every lattice point, accumulate the
// pairwise receptor interaction for each requested probe type, plus
// electrostatic and desolvation terms, using the precomputed radial
// tables and all available cores.
func Generate(receptor *chem.Molecule, spec Spec, types []chem.AtomType) (*Maps, error) {
	return GenerateWorkers(receptor, spec, types, 0)
}

// GenerateWorkers is Generate with an explicit worker count (≤ 0 sizes
// the slab pool from the process-wide CPU token budget of
// internal/parallel, so a Generate nested under an already-parallel
// stage degrades to serial instead of oversubscribing the machine).
// The z-slab decomposition is determined by the Spec
// alone and every lattice point is written exactly once, so the output
// is bit-identical for every worker count.
func GenerateWorkers(receptor *chem.Molecule, spec Spec, types []chem.AtomType, workers int) (*Maps, error) {
	m, probes, err := newMaps(receptor, spec, types)
	if err != nil {
		return nil, err
	}

	g := &generator{
		spec:   spec,
		origin: spec.Origin(),
		cells:  dock.NewNeighborList(receptor, interactionCutoff),
	}

	// Per-atom coefficients and a dense receptor-type index so the
	// inner loop is array lookups only.
	recTypes := make(map[chem.AtomType]int32)
	var typeList []chem.AtomType
	g.charge = make([]float64, len(receptor.Atoms))
	g.dcoef = make([]float64, len(receptor.Atoms))
	g.typeIdx = make([]int32, len(receptor.Atoms))
	for i := range receptor.Atoms {
		a := &receptor.Atoms[i]
		at := receptorAtomType(a)
		ti, ok := recTypes[at]
		if !ok {
			ti = int32(len(typeList))
			recTypes[at] = ti
			typeList = append(typeList, at)
		}
		g.charge[i] = a.Charge
		g.dcoef[i] = tables.DesolvCoeff(at.Params(), a.Charge)
		g.typeIdx[i] = ti
	}

	g.elecTbl = tables.Electrostatic()
	g.desolvTbl = tables.Desolvation()
	g.elec, g.desolv = m.elec, m.desolv
	for _, t := range probes {
		g.probeSlices = append(g.probeSlices, m.affinity[t])
	}
	for _, at := range typeList {
		row := make([]*tables.Radial, len(probes))
		for pi, pt := range probes {
			row[pi] = tables.AD4Smoothed(pt, at)
		}
		g.pairTbl = append(g.pairTbl, row)
	}

	nz := spec.NPts[2]
	if workers <= 0 {
		want := runtime.GOMAXPROCS(0)
		if want > nz {
			want = nz
		}
		var release func()
		workers, release = parallel.Tokens().Grab(want)
		defer release()
	}
	if workers > nz {
		workers = nz
	}
	if workers <= 1 {
		affin := make([]float64, len(probes))
		for k := 0; k < nz; k++ {
			g.slab(k, affin)
		}
		return m, nil
	}
	slabs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			affin := make([]float64, len(probes))
			for k := range slabs {
				g.slab(k, affin)
			}
		}()
	}
	for k := 0; k < nz; k++ {
		slabs <- k
	}
	close(slabs)
	wg.Wait()
	return m, nil
}

func clamp(e float64) float64 {
	if e > energyClamp {
		return energyClamp
	}
	if e < -energyClamp {
		return -energyClamp
	}
	return e
}

// PairEnergy is the AD4 pairwise dispersion/repulsion potential; the
// analytic form lives in internal/dock/tables (shared with the
// scorers), re-exported here for map consumers and tests.
func PairEnergy(probe, rec chem.TypeParams, r float64) float64 {
	return tables.PairEnergy(probe, rec, r)
}

// PairEnergySmoothed applies AutoGrid's potential smoothing to
// PairEnergy; see tables.PairEnergySmoothed.
func PairEnergySmoothed(probe, rec chem.TypeParams, r, smooth float64) float64 {
	return tables.PairEnergySmoothed(probe, rec, r, smooth)
}

// electrostaticTerm is the Coulomb interaction of a unit probe charge
// with receptor charge q at distance r under the Mehler–Solmajer
// distance-dependent dielectric (the analytic reference path).
func electrostaticTerm(q, r float64) float64 {
	return q * tables.ElecScale(r)
}

// dielectric is the sigmoidal distance-dependent dielectric of
// Mehler & Solmajer (1991); see tables.Dielectric.
func dielectric(r float64) float64 {
	return tables.Dielectric(r)
}

// desolvationTerm is the gaussian-weighted atomic desolvation term of
// the AD4 force field (the analytic reference path).
func desolvationTerm(a *chem.Atom, r float64) float64 {
	return tables.DesolvCoeff(receptorAtomType(a).Params(), a.Charge) * tables.DesolvWeight(r)
}
