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
// the inner loop; one interned tables.Row per receptor type holds
// every probe's table and elec and desolv node-interleaved, so a hit
// finds its bin once — and fans the z-slab loop out over a bounded
// worker pool. The decomposition is fixed by the Spec (one task per z slab,
// every point written exactly once), so output is bit-identical
// regardless of worker count. The serial analytic path lives on in
// the tests as the oracle the tables are pinned against.
package grid

import (
	"fmt"
	"sort"

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

// Maps holds every precomputed map for one receptor. Each lattice is
// single precision, as AutoDock reads its grids: generation sums in
// float64 and rounds each clamped value once into the lattice, and
// every read widens the corners back to float64.
type Maps struct {
	Spec     Spec
	Receptor string
	affinity map[chem.AtomType][]float32
	elec     []float32
	desolv   []float32
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
		affinity: make(map[chem.AtomType][]float32, len(types)),
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
		affinity: make(map[chem.AtomType][]float32, len(types)),
		elec:     make([]float32, n),
		desolv:   make([]float32, n),
	}
	var probes []chem.AtomType
	for _, t := range types {
		if _, dup := m.affinity[t]; dup {
			continue
		}
		m.affinity[t] = make([]float32, n)
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
	cells       *dock.PackedNeighbors // every receptor atom, class = its index
	charge      []float64             // per receptor atom
	dcoef       []float64             // per receptor atom, desolvation prefactor
	typeIdx     []int32               // per receptor atom, index into rows
	rows        []*tables.Row         // [receptor type]: every probe, then elec and desolv
	elec        []float32
	desolv      []float32
	probeSlices [][]float32
}

// slab fills every map value of z-plane k. affin is the worker's
// reusable per-probe accumulator, hoisted out of the triple loop. The
// neighbour walk filters each point's fine-cell candidate list one
// chunk of hits at a time; a hit's class is its receptor atom index,
// and its receptor type's row gives every probe's term and the elec
// and desolv weights from one bin lookup. Each point's sums stay in
// float64 until they are stored, clamped and rounded once to float32.
func (g *generator) slab(k int, affin []float64) {
	const cut2 = interactionCutoff * interactionCutoff
	nx, ny := g.spec.NPts[0], g.spec.NPts[1]
	idx := k * nx * ny
	z := g.origin.Z + float64(k)*g.spec.Spacing
	atoms := g.cells.Atoms()
	var hits [64]dock.Hit
	for j := 0; j < ny; j++ {
		y := g.origin.Y + float64(j)*g.spec.Spacing
		for i := 0; i < nx; i++ {
			x := g.origin.X + float64(i)*g.spec.Spacing
			var elec, desolv float64
			for pi := range affin {
				affin[pi] = 0
			}
			cand := g.cells.Candidates(chem.V(x, y, z))
			for at := 0; at < len(cand); at += len(hits) {
				end := min(at+len(hits), len(cand))
				m := dock.FilterIndexed(atoms, cand[at:end], x, y, z, cut2, hits[:], 0)
				for _, h := range hits[:m] {
					e, d := g.rows[g.typeIdx[h.Cls]].AddAt2(affin, h.R2)
					elec += float64(g.charge[h.Cls] * e)
					desolv += float64(g.dcoef[h.Cls] * d)
				}
			}
			g.elec[idx] = float32(clamp(elec))
			g.desolv[idx] = float32(clamp(desolv))
			for pi := range affin {
				g.probeSlices[pi][idx] = float32(clamp(affin[pi]))
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

// GenerateWorkers is Generate with an explicit worker count under
// parallel.For's rule (≤ 0 sizes the slab pool from the process-wide
// CPU token budget, so a Generate nested under an already-parallel
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
		cells:  dock.NewPackedNeighbors(receptor, interactionCutoff, func(atom int32) int32 { return atom }),
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

	g.elec, g.desolv = m.elec, m.desolv
	for _, t := range probes {
		g.probeSlices = append(g.probeSlices, m.affinity[t])
	}
	for _, at := range typeList {
		g.rows = append(g.rows, tables.AD4Row(at, probes))
	}

	err = parallel.For(spec.NPts[2], workers,
		func() []float64 { return make([]float64, len(probes)) },
		func(k int, affin []float64) error {
			g.slab(k, affin)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
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
