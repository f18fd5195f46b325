package dock

import (
	"math/rand"
	"testing"

	"repro/internal/chem"
)

// requireBatchCoords fails unless b holds exactly the poses, each slot's
// Coords and every SoA component bit-identical to CoordsInto.
func requireBatchCoords(t *testing.T, label string, lig *Ligand, b *Batch, poses []Pose) {
	t.Helper()
	if b.Len() != len(poses) {
		t.Fatalf("%s: Len %d, want %d", label, b.Len(), len(poses))
	}
	stride := lig.Mol.NumAtoms()
	xs, ys, zs := b.SoA()
	if len(xs) != len(poses)*stride || len(ys) != len(xs) || len(zs) != len(xs) {
		t.Fatalf("%s: SoA lanes %d/%d/%d, want %d", label, len(xs), len(ys), len(zs), len(poses)*stride)
	}
	for k, p := range poses {
		got := b.Coords(k)
		for i, w := range lig.CoordsInto(p, nil) {
			at := k*stride + i
			if got[i] != w || xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
				t.Fatalf("%s: pose %d atom %d: Coords %v, SoA (%v,%v,%v), CoordsInto %v",
					label, k, i, got[i], xs[at], ys[at], zs[at], w)
			}
		}
	}
}

// TestBatchAppendMatchesCoords pins the stand-in Batch to CoordsInto:
// Append returns consecutive slots, and past the initial capacity every
// slot equals the per-pose coordinates bit for bit.
func TestBatchAppendMatchesCoords(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(1, -2, 3), Size: chem.V(12, 12, 12)}
	r := rand.New(rand.NewSource(11))
	b := NewBatch(lig, 4) // deliberately smaller than the pose count: exercises growth
	var poses []Pose
	for k := 0; k < 33; k++ {
		p := RandomPose(r, box, lig.NumTorsions())
		poses = append(poses, p)
		if slot := b.Append(p); slot != k {
			t.Fatalf("slot %d, want %d", slot, k)
		}
	}
	requireBatchCoords(t, "33 poses", lig, b, poses)
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
}

// TestBatchSizesMatchCoords sweeps the engine batch sizes, the empty
// batch included.
func TestBatchSizesMatchCoords(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 1, -1), Size: chem.V(14, 14, 14)}
	r := rand.New(rand.NewSource(23))
	b := NewBatch(lig, 8)
	for _, n := range []int{0, 1, 7, 64} {
		b.Reset()
		poses := make([]Pose, n)
		for k := range poses {
			poses[k] = RandomPose(r, box, lig.NumTorsions())
			b.Append(poses[k])
		}
		requireBatchCoords(t, "sweep", lig, b, poses)
	}
}

// TestBatchIncrementalMaterialize reads the batch, appends past its
// capacity and reads it again — earlier slots must survive the growth —
// and then reuses the storage after Reset.
func TestBatchIncrementalMaterialize(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(12, 12, 12)}
	r := rand.New(rand.NewSource(31))
	b := NewBatch(lig, 2) // tiny: every phase below grows the storage
	var poses []Pose
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			p := RandomPose(r, box, lig.NumTorsions())
			poses = append(poses, p)
			b.Append(p)
		}
	}
	appendN(3)
	requireBatchCoords(t, "first fill", lig, b, poses)
	appendN(14)
	requireBatchCoords(t, "grown fill", lig, b, poses)
	appendN(1)
	requireBatchCoords(t, "single-pose tail", lig, b, poses)
	b.Reset()
	poses = poses[:0]
	appendN(5)
	requireBatchCoords(t, "after reset", lig, b, poses)
}

// TestBatchZeroTorsionLigand covers the rigid ligand, for which
// CoordsInto skips the centroid re-centre.
func TestBatchZeroTorsionLigand(t *testing.T) {
	m := &chem.Molecule{Name: "RIGID"}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 7; i++ {
		m.Atoms = append(m.Atoms, chem.Atom{Element: chem.Carbon,
			Pos: chem.V(r.Float64()*4, r.Float64()*4, r.Float64()*4)})
	}
	lig, err := NewLigand(m, &chem.TorsionTree{})
	if err != nil {
		t.Fatal(err)
	}
	box := Box{Center: chem.V(2, -1, 0), Size: chem.V(10, 10, 10)}
	b := NewBatch(lig, 2)
	var poses []Pose
	for k := 0; k < 9; k++ {
		p := RandomPose(r, box, 0)
		poses = append(poses, p)
		b.Append(p)
	}
	requireBatchCoords(t, "rigid", lig, b, poses)
}

// TestBatchAppendCopiesPose pins the aliasing contract: mutating a pose
// (or its torsion slice) after Append does not reach its slot.
func TestBatchAppendCopiesPose(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(12, 12, 12)}
	r := rand.New(rand.NewSource(13))
	b := NewBatch(lig, 4)
	p := RandomPose(r, box, lig.NumTorsions())
	snapshot := p.Clone()
	b.Append(p)
	p.Translation = chem.V(99, 99, 99)
	p.Orientation = chem.RandomQuat(0.1, 0.2, 0.3)
	for i := range p.Torsions {
		p.Torsions[i] = 1.234
	}
	requireBatchCoords(t, "mutated after Append", lig, b, []Pose{snapshot})
}

// TestBatchAppendPanicsOnTorsionMismatch mirrors CoordsInto's
// validation.
func TestBatchAppendPanicsOnTorsionMismatch(t *testing.T) {
	lig := testLigand(t, "0E6")
	b := NewBatch(lig, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong torsion count")
		}
	}()
	b.Append(Pose{Orientation: chem.QuatIdentity,
		Torsions: make([]float64, lig.NumTorsions()+1)})
}

// TestBatchSteadyStateAllocs pins the zero-alloc contract of the warm
// Reset/Append/SoA cycle.
func TestBatchSteadyStateAllocs(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(10, 10, 10)}
	r := rand.New(rand.NewSource(5))
	b := NewBatch(lig, 16)
	poses := make([]Pose, 50)
	for i := range poses {
		poses[i] = RandomPose(r, box, lig.NumTorsions())
	}
	run := func() {
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		_, _, _ = b.SoA()
	}
	run() // warm: reach the high-water mark once
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state batch loop allocates %.1f/op, want 0", allocs)
	}
}
