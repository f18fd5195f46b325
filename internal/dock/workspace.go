package dock

import "repro/internal/chem"

// Workspace is the per-worker scratch state of a conformational
// search: one reusable coordinate buffer, a small free-list of scratch
// poses with ligand-sized torsion storage, and the state of the
// search's incremental evaluator, if it has one. Every candidate
// evaluation — materialize coordinates, score, keep or discard —
// runs with zero heap allocations once the workspace is warm, which
// is what lets the search pools of the Vina and AD4 engines spin
// thousands of evaluations per chain without pressuring the GC.
//
// A Workspace is NOT safe for concurrent use; each search worker owns
// its own. The coordinate slice returned by Coords aliases the
// workspace buffer and is overwritten by the next Coords call.
type Workspace struct {
	lig    *Ligand
	coords []chem.Vec3
	free   []*Pose

	// Eval belongs to the search that owns the workspace; engines that
	// score every pose in full leave it empty.
	Eval EvalState
}

// EvalState is the per-worker state of an incumbent-anchored
// incremental evaluator (Vina's local optimizer): the partial sums of
// the incumbent pose and of the probe being scored — swapped when a
// probe is accepted — and the counters of what was scored and what
// taken over. It lives here, not on a scorer or an engine, because
// those are shared between workers and this is one worker's.
type EvalState struct {
	Incumbent, Probe Partials
	// Moved is per-probe scratch: per rigid fragment, whether any of
	// its atoms differs from the incumbent's.
	Moved []bool
	Stats Stats
}

// Partials is one pose as an incremental evaluator holds it: its
// materialized coordinates and the partial sums its score was added up
// from.
type Partials struct {
	Coords []chem.Vec3
	Atom   []float64 // per ligand atom: its intermolecular sum
	Group  []float64 // per intramolecular pair group: its sum
}

// Resize sizes the state for a ligand of the given atom, pair-group and
// rigid-fragment counts, keeping storage that is already big enough. It
// does not clear anything: an evaluator scores its first pose in full.
func (e *EvalState) Resize(atoms, groups, fragments int) {
	e.Incumbent.Atom, e.Probe.Atom = grow(e.Incumbent.Atom, atoms), grow(e.Probe.Atom, atoms)
	e.Incumbent.Group, e.Probe.Group = grow(e.Incumbent.Group, groups), grow(e.Probe.Group, groups)
	e.Moved = grow(e.Moved, fragments)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewWorkspace builds a workspace sized for the ligand's atom and
// torsion counts.
func NewWorkspace(lig *Ligand) *Workspace {
	return &Workspace{
		lig:    lig,
		coords: make([]chem.Vec3, 0, lig.Mol.NumAtoms()),
		free:   make([]*Pose, 0, 8),
	}
}

// Ligand returns the conformational model the workspace serves.
func (w *Workspace) Ligand() *Ligand { return w.lig }

// Coords materializes the pose into the workspace buffer and returns
// it. The slice is reused: it is only valid until the next Coords
// call on this workspace.
func (w *Workspace) Coords(p Pose) []chem.Vec3 {
	w.coords = w.lig.CoordsInto(p, w.coords)
	return w.coords
}

// Get hands out a scratch pose with ligand-sized torsion capacity,
// recycled through Put. Steady-state Get/Put cycles allocate nothing.
func (w *Workspace) Get() *Pose {
	if n := len(w.free); n > 0 {
		p := w.free[n-1]
		w.free = w.free[:n-1]
		return p
	}
	return &Pose{Torsions: make([]float64, 0, w.lig.NumTorsions())}
}

// Put returns a scratch pose to the free list.
func (w *Workspace) Put(p *Pose) { w.free = append(w.free, p) }
