package dock

import (
	"math/rand"

	"repro/internal/chem"
)

// Workspace is the per-worker scratch state of a conformational
// search: one reusable coordinate buffer, a small free-list of scratch
// poses with ligand-sized torsion storage, the state of a gradient
// local optimizer, and the search's work counters. Every candidate
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
	rng    *rand.Rand

	// Local belongs to the local optimizer of the search that owns the
	// workspace (Vina's BFGS); engines without one leave it empty.
	Local LocalState
	// Stats counts the work of the search unit (a Vina chain) the
	// worker is running; the engine resets it per unit.
	Stats Stats
}

// LocalState is the per-worker state of a quasi-Newton local optimizer
// over the pose's 6 + torsions degrees of freedom: the inverse-Hessian
// approximation, the pose-space vectors of one iteration, and the
// per-atom gradient of the pose last evaluated (its coordinates are the
// workspace's Coords buffer). It lives here, not on a scorer or an
// engine, because those are shared between workers and this is one
// worker's.
type LocalState struct {
	// H is the n×n inverse-Hessian approximation, row-major.
	H []float64
	// G is the gradient at the current pose, GNew at the trial pose,
	// P the search direction and HY scratch for H·y; Y is GNew − G.
	G, GNew, P, Y, HY []float64
	// Grad holds dE/dx per atom of the last evaluated pose.
	Grad []chem.Vec3
}

// Resize sizes the state for n pose degrees of freedom and the given
// atom count, keeping storage that is already big enough. It clears
// nothing.
func (l *LocalState) Resize(n, atoms int) {
	l.H = grow(l.H, n*n)
	l.G = grow(l.G, n)
	l.GNew = grow(l.GNew, n)
	l.P = grow(l.P, n)
	l.Y = grow(l.Y, n)
	l.HY = grow(l.HY, n)
	l.Grad = grow(l.Grad, atoms)
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

// Rand returns the workspace's generator seeded with seed: the stream
// rand.New(rand.NewSource(seed)) draws, without a fresh 5.4 KB
// generator for every search run or chain the worker takes. It stays
// valid until the next Rand call on this workspace.
func (w *Workspace) Rand(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
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
