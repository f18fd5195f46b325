package dock

import "repro/internal/chem"

// Batch is a buffer of materialized candidate poses. It no longer
// feeds a kernel of its own — both engines' ScoreBatch and
// ScoreBatchFast score a batch one pose at a time through the exact
// per-pose Score — and stays, with NewBatch, Len, Reset, Append, SoA
// and the inert window setters, only until bench/ stops calling it.
// bf08260 is the last commit that holds the batched, tolerance and
// window kernels it used to drive (DESIGN.md §4 "Retired kernel
// generations").
//
// A Batch is NOT safe for concurrent use; like Workspace, each caller
// owns its own. Once warm, Reset/Append cycles allocate nothing.
type Batch struct {
	lig        *Ligand
	coords     []chem.Vec3 // Len() poses' atoms, pose-major
	pose       []chem.Vec3 // CoordsInto scratch
	xs, ys, zs []float64   // SoA's lanes
}

// NewBatch builds a batch for the ligand with initial capacity for
// capPoses poses (it grows beyond that on demand).
func NewBatch(lig *Ligand, capPoses int) *Batch {
	return &Batch{lig: lig, coords: make([]chem.Vec3, 0, max(capPoses, 0)*lig.Mol.NumAtoms())}
}

// Len returns the number of poses currently in the batch.
func (b *Batch) Len() int { return len(b.coords) / b.lig.Mol.NumAtoms() }

// Reset empties the batch, keeping its storage.
func (b *Batch) Reset() { b.coords = b.coords[:0] }

// Append materializes the pose through Ligand.CoordsInto into the next
// slot and returns the slot index, so slot p holds exactly the
// coordinates Workspace.Coords gives for the same pose. It panics, as
// CoordsInto does, on a pose with the wrong torsion count.
func (b *Batch) Append(p Pose) int {
	slot := b.Len()
	b.pose = b.lig.CoordsInto(p, b.pose)
	b.coords = append(b.coords, b.pose...)
	return slot
}

// Coords returns slot p's atom coordinates. The slice aliases the
// batch storage and is overwritten by Reset/Append.
func (b *Batch) Coords(p int) []chem.Vec3 {
	n := b.lig.Mol.NumAtoms()
	return b.coords[p*n : (p+1)*n]
}

// SoA returns the batch as three component slices, each
// Len()·NumAtoms() long, with pose p's atom i at index p·NumAtoms()+i.
// They alias the batch storage and are overwritten by the next call.
func (b *Batch) SoA() (xs, ys, zs []float64) {
	b.xs, b.ys, b.zs = b.xs[:0], b.ys[:0], b.zs[:0]
	for _, c := range b.coords {
		b.xs = append(b.xs, c.X)
		b.ys = append(b.ys, c.Y)
		b.zs = append(b.zs, c.Z)
	}
	return b.xs, b.ys, b.zs
}

// SetWindow, SetWindowBound and ClearWindow are accepted and ignored:
// no scorer screens a window any more.
func (b *Batch) SetWindow(Pose) {}

// SetWindowBound is accepted and ignored; see SetWindow.
func (b *Batch) SetWindowBound(float64) {}

// ClearWindow is accepted and ignored; see SetWindow.
func (b *Batch) ClearWindow() {}
