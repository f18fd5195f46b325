package dock

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
)

// TestGatherSharedSupersetRandomWindows is the randomized pin of the
// window-gather superset property: for 1k random (anchor, bound, pose
// point) windows with the pose point inside the bound, the
// inflated-cutoff shared gather at the anchor must contain every true
// in-cutoff neighbor of the pose point — and FilterSpan over the
// shared candidates must reproduce the per-pose Gather hit sequence
// BIT FOR BIT (same count, same order, same Cls, same R² bits), which
// is the stronger form the engines' 0-ULP window contract rests on.
func TestGatherSharedSupersetRandomWindows(t *testing.T) {
	rec, _ := data.GenerateReceptor("1CSB")
	const cutoff = 8.0
	nl := NewNeighborList(rec, cutoff)
	pn := NewPackedNeighbors(nl, func(atom int32) int32 { return atom % 7 })
	hitLen := 1
	for hitLen < len(pn.Atoms()) {
		hitLen *= 2
	}
	gHits := make([]Hit, hitLen)
	fHits := make([]Hit, hitLen)
	var span []PackedAtom
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 1000; trial++ {
		anchor := chem.V(r.Float64()*36-18, r.Float64()*36-18, r.Float64()*36-18)
		bound := 0.05 + r.Float64()*5
		// Pose point displaced from the anchor by at most the bound.
		dir := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		if n := dir.Norm(); n > 0 {
			dir = dir.Scale(1 / n)
		}
		q := anchor.Add(dir.Scale(bound * r.Float64()))

		span = span[:0]
		pn.GatherShared(anchor, cutoff+bound, &span)
		nf := FilterSpan(span, q.X, q.Y, q.Z, cutoff*cutoff, fHits, 0)
		ng := pn.Gather(q, cutoff*cutoff, gHits)
		if nf != ng {
			t.Fatalf("trial %d (anchor %v bound %.3f): FilterSpan found %d hits, Gather %d",
				trial, anchor, bound, nf, ng)
		}
		for k := 0; k < ng; k++ {
			if fHits[k] != gHits[k] {
				t.Fatalf("trial %d hit %d: FilterSpan %+v != Gather %+v",
					trial, k, fHits[k], gHits[k])
			}
		}
	}
}

// TestGatherSharedBeyondBoundStillExact pins that the shared-gather
// identity is a property of geometry, not luck: when the pose point
// ESCAPES the bound, FilterSpan over the too-small shared set may miss
// neighbors — which is exactly why WindowValid gates admission. The
// test constructs escapes and verifies at least one miss occurs over
// the trials (the hazard is real), while Gather remains the ground
// truth the fallback path uses.
func TestGatherSharedBeyondBoundStillExact(t *testing.T) {
	rec, _ := data.GenerateReceptor("1CSB")
	const cutoff = 8.0
	nl := NewNeighborList(rec, cutoff)
	pn := NewPackedNeighbors(nl, func(atom int32) int32 { return atom })
	hitLen := 1
	for hitLen < len(pn.Atoms()) {
		hitLen *= 2
	}
	gHits := make([]Hit, hitLen)
	fHits := make([]Hit, hitLen)
	var span []PackedAtom
	r := rand.New(rand.NewSource(7))
	missed := false
	for trial := 0; trial < 200; trial++ {
		anchor := chem.V(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
		bound := 0.5
		// Escape: displace by 2–4 bounds.
		dir := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		if n := dir.Norm(); n > 0 {
			dir = dir.Scale(1 / n)
		}
		q := anchor.Add(dir.Scale(bound * (2 + 2*r.Float64())))
		span = span[:0]
		pn.GatherShared(anchor, cutoff+bound, &span)
		nf := FilterSpan(span, q.X, q.Y, q.Z, cutoff*cutoff, fHits, 0)
		ng := pn.Gather(q, cutoff*cutoff, gHits)
		if nf < ng {
			missed = true
		}
		if nf > ng {
			t.Fatalf("trial %d: filtered set has %d hits beyond Gather's %d — FilterSpan admitted an out-of-cutoff atom", trial, nf, ng)
		}
	}
	if !missed {
		t.Error("no escape ever dropped a neighbor; the bound-violation hazard this test documents never materialized")
	}
}

// TestWindowValidAuditsActualCoords pins the admission test of the
// shared path: WindowValid must flag exactly the poses whose
// materialized coordinates stay within the bound of the anchor's, so
// validity never depends on how the bound was estimated.
func TestWindowValidAuditsActualCoords(t *testing.T) {
	lig := testLigand(t, "0E6")
	b := NewBatch(lig, 8)
	anchor := Pose{Orientation: chem.QuatIdentity, Torsions: make([]float64, lig.NumTorsions())}
	radius := b.SetWindow(anchor)
	if radius <= 0 {
		t.Fatalf("anchor radius = %v, want > 0", radius)
	}
	const bound = 1.0
	b.SetWindowBound(bound)
	r := rand.New(rand.NewSource(4))
	poses := make([]Pose, 0, 6)
	for k := 0; k < 3; k++ { // tiny translations: within bound
		p := anchor.Clone()
		p.Translation = chem.V(r.Float64()*0.4, r.Float64()*0.4, r.Float64()*0.4)
		poses = append(poses, p)
	}
	esc := anchor.Clone() // escapes: translation alone exceeds the bound
	esc.Translation = chem.V(1.7, 0, 0)
	poses = append(poses, esc)
	tors := anchor.Clone() // torsion spin: swings arm atoms beyond 1 Å
	if lig.NumTorsions() > 0 {
		tors.Torsions[0] = math.Pi
	} else {
		tors.Translation = chem.V(0, 2, 0)
	}
	poses = append(poses, tors, anchor)
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
	valid := b.WindowValid()
	anchorC := lig.Coords(anchor)
	for p := range poses {
		c := lig.Coords(poses[p])
		want := true
		for i := range c {
			if c[i].Dist2(anchorC[i]) > bound*bound {
				want = false
				break
			}
		}
		if valid[p] != want {
			t.Errorf("pose %d: WindowValid = %v, actual-displacement check = %v", p, valid[p], want)
		}
	}
	if valid[3] {
		t.Error("escaping translation pose admitted to the shared path")
	}
	if !valid[len(poses)-1] {
		t.Error("the anchor pose itself rejected")
	}
	// Deactivating the bound turns the window path off without
	// discarding the anchor.
	b.SetWindowBound(0)
	if _, _, ok := b.Window(); ok {
		t.Error("Window reports ok with a non-positive bound")
	}
	b.ClearWindow()
}
