package dock

import (
	"math/rand"
	"testing"

	"repro/internal/chem"
)

// TestBatchAppendMatchesCoords pins the SoA contract: every component
// of every slot is bit-identical to the AoS CoordsInto path.
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
	if b.Len() != len(poses) || b.Stride() != lig.Mol.NumAtoms() {
		t.Fatalf("len=%d stride=%d, want %d/%d", b.Len(), b.Stride(), len(poses), lig.Mol.NumAtoms())
	}
	xs, ys, zs := b.SoA()
	for k, p := range poses {
		want := lig.Coords(p)
		for i, w := range want {
			at := k*b.Stride() + i
			if xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
				t.Fatalf("pose %d atom %d: batch (%v,%v,%v) != coords %v",
					k, i, xs[at], ys[at], zs[at], w)
			}
			if got := b.At(k, i); got != w {
				t.Fatalf("At(%d,%d) = %v, want %v", k, i, got, w)
			}
		}
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
}

// TestBatchSizesMatchCoords sweeps the engine batch sizes, pinning the
// 0-ULP contract of the deferred batched-kinematics materialization at
// every size including the empty batch.
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
		xs, ys, zs := b.SoA()
		if len(xs) != n*b.Stride() {
			t.Fatalf("n=%d: SoA len %d, want %d", n, len(xs), n*b.Stride())
		}
		for k, p := range poses {
			want := lig.Coords(p)
			for i, w := range want {
				at := k*b.Stride() + i
				if xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
					t.Fatalf("n=%d pose %d atom %d mismatch", n, k, i)
				}
			}
		}
	}
}

// TestBatchIncrementalMaterialize pins the growth edge cases of the
// deferred materialization: materialize, append past capacity,
// materialize again — earlier slots must survive the lane growth — and
// Reset-then-Append storage reuse.
func TestBatchIncrementalMaterialize(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(12, 12, 12)}
	r := rand.New(rand.NewSource(31))
	b := NewBatch(lig, 2) // tiny: every phase below grows the lanes
	var poses []Pose
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			p := RandomPose(r, box, lig.NumTorsions())
			poses = append(poses, p)
			b.Append(p)
		}
	}
	check := func(phase string) {
		t.Helper()
		xs, ys, zs := b.SoA()
		for k, p := range poses {
			want := lig.Coords(p)
			for i, w := range want {
				at := k*b.Stride() + i
				if xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
					t.Fatalf("%s: pose %d atom %d mismatch", phase, k, i)
				}
			}
		}
	}
	appendN(3)
	check("first window")
	// Appending after a materialization must only materialize the tail
	// while preserving the already-written slots across lane growth.
	appendN(14)
	check("grown window")
	appendN(1)
	check("single-pose tail")
	// Reset-then-Append reuses the high-water storage.
	b.Reset()
	poses = poses[:0]
	appendN(5)
	check("after reset")
}

// TestBatchZeroTorsionLigand covers the rigid-ligand path: CoordsInto
// skips the centroid re-centre, and the batched kernel must too.
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
	xs, ys, zs := b.SoA()
	for k, p := range poses {
		want := lig.Coords(p)
		for i, w := range want {
			at := k*b.Stride() + i
			if xs[at] != w.X || ys[at] != w.Y || zs[at] != w.Z {
				t.Fatalf("pose %d atom %d mismatch", k, i)
			}
		}
	}
}

// TestBatchAppendCopiesPose pins the aliasing contract: mutating a
// pose (or its torsion slice) after Append, before materialization,
// must not affect the staged slot.
func TestBatchAppendCopiesPose(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(12, 12, 12)}
	r := rand.New(rand.NewSource(13))
	b := NewBatch(lig, 4)
	p := RandomPose(r, box, lig.NumTorsions())
	snapshot := p.Clone()
	b.Append(p)
	// Mutate every field of the appended pose before SoA materializes.
	p.Translation = chem.V(99, 99, 99)
	p.Orientation = chem.RandomQuat(0.1, 0.2, 0.3)
	for i := range p.Torsions {
		p.Torsions[i] = 1.234
	}
	want := lig.Coords(snapshot)
	xs, ys, zs := b.SoA()
	for i, w := range want {
		if xs[i] != w.X || ys[i] != w.Y || zs[i] != w.Z {
			t.Fatalf("atom %d: staged slot aliased the caller's pose", i)
		}
	}
}

// TestBatchAppendPanicsOnTorsionMismatch mirrors CoordsInto's
// validation at the staging boundary.
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
// Reset/Append cycle.
func TestBatchSteadyStateAllocs(t *testing.T) {
	lig := testLigand(t, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(10, 10, 10)}
	r := rand.New(rand.NewSource(5))
	b := NewBatch(lig, 16)
	poses := make([]Pose, 50)
	for i := range poses {
		poses[i] = RandomPose(r, box, lig.NumTorsions())
	}
	// Warm: reach the high-water mark and the scratch buffers once.
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
	_, _, _ = b.SoA()
	_ = b.Scratch(len(poses))
	_ = b.Scratch32(2 * len(poses))
	_ = b.Hits(256)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		_, _, _ = b.SoA()
		_ = b.Scratch(len(poses))
		_ = b.Scratch32(2 * len(poses))
		_ = b.Hits(256)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch loop allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkBatchAppend50(b *testing.B) {
	lig := testLigand(b, "0E6")
	box := Box{Center: chem.V(0, 0, 0), Size: chem.V(10, 10, 10)}
	r := rand.New(rand.NewSource(5))
	poses := make([]Pose, 50)
	for i := range poses {
		poses[i] = RandomPose(r, box, lig.NumTorsions())
	}
	batch := NewBatch(lig, len(poses))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for _, p := range poses {
			batch.Append(p)
		}
		_, _, _ = batch.SoA()
	}
}
