package dock

import (
	"math"

	"repro/internal/chem"
)

// Incumbent-anchored window screening (DESIGN.md "Incumbent-anchored
// gather and window screening").
//
// A search window is a set of small perturbations of one incumbent
// pose. Instead of running the neighbor gather once per (atom, pose),
// the engines gather ONCE per atom at the window's anchor with the
// cutoff inflated by a displacement bound D, then rescore every pose of
// the window against that shared candidate set. Correctness never
// depends on how D was estimated: a pose participates in the shared
// path only if WindowValid confirms — on its actual materialized
// coordinates — that every atom sits within D of its anchor position;
// by the triangle inequality the inflated set is then a superset of the
// pose's true in-cutoff neighbor set, and filtering it with the exact
// r² ≤ cutoff² test reproduces the per-pose gather hit sequence bit for
// bit. Poses that escape the bound fall back to the exact per-pose
// gather, so a loose or even wrong D only costs speed, never accuracy.

// SetWindow starts a window anchored at the given pose: the anchor
// coordinates are materialized and cached, and the per-pose validity
// and engine gather caches are invalidated. Returns the anchor's atom
// radius — the largest distance of any atom from the anchor's about
// point (its Translation, the point the orientation rotates about) —
// which is the rotation lever arm a caller needs to size the
// displacement bound.
//
// The window survives Reset/Append refills (callers stream one window
// through the batch in chunks); call ClearWindow to end it.
func (b *Batch) SetWindow(anchor Pose) float64 {
	b.win.pose.Set(anchor)
	b.win.anchor = b.lig.CoordsInto(b.win.pose, b.win.anchor)
	b.win.set = true
	b.win.stamp++
	b.win.bound, b.win.bound2 = 0, 0
	b.win.validN = 0
	var max2 float64
	t := anchor.Translation
	for _, v := range b.win.anchor {
		d := v.Sub(t)
		if d2 := d.Norm2(); d2 > max2 {
			max2 = d2
		}
	}
	return math.Sqrt(max2)
}

// SetWindowBound sets the window's displacement bound D (Å): the
// engines gather at reach = cutoff + D and WindowValid admits a pose to
// the shared path only when every atom's actual displacement from the
// anchor is ≤ D. A non-positive bound deactivates the window path
// (Window reports ok=false) without discarding the anchor.
//
// unit: d=Å
func (b *Batch) SetWindowBound(d float64) {
	b.win.bound = d
	b.win.bound2 = d * d
	b.win.validN = 0
	b.win.stamp++
}

// ClearWindow ends the window; subsequent scoring runs the per-pose
// path.
func (b *Batch) ClearWindow() {
	b.win.set = false
	b.win.stamp++
}

// Window returns the materialized anchor coordinates and displacement
// bound of the active window, or ok=false when no window with a
// positive bound is set. The slice is owned by the batch and valid
// until the next SetWindow.
func (b *Batch) Window() (anchor []chem.Vec3, bound float64, ok bool) {
	if !b.win.set || b.win.bound <= 0 {
		return nil, 0, false
	}
	return b.win.anchor, b.win.bound, true
}

// WindowValid reports, per pose, whether every atom of the pose lies
// within the window bound of its anchor position — the admission test
// of the shared-gather path, computed on the ACTUAL materialized
// coordinates so the superset guarantee is unconditional. Entries are
// computed lazily as poses are appended and cached until Reset. The
// returned slice is owned by the batch, length Len().
func (b *Batch) WindowValid() []bool {
	b.materialize()
	n := b.n
	for len(b.win.valid) < n {
		b.win.valid = append(b.win.valid, false)
	}
	b.win.valid = b.win.valid[:n]
	stride := b.stride
	anchor := b.win.anchor
	bound2 := b.win.bound2
	for p := b.win.validN; p < n; p++ {
		at := p * stride
		ok := true
		for i := 0; i < stride; i++ {
			a := anchor[i]
			dx := b.xs[at+i] - a.X
			dy := b.ys[at+i] - a.Y
			dz := b.zs[at+i] - a.Z
			if dx*dx+dy*dy+dz*dz > bound2 {
				ok = false
				break
			}
		}
		b.win.valid[p] = ok
	}
	b.win.validN = n
	return b.win.valid
}

// WindowGather returns the shared candidate CSR an engine built for the
// current window — cands split per ligand atom by offs (len Stride()+1)
// — or ok=false when the cache belongs to another owner or an older
// window. Owner identity keeps two engines (or the exact and fast
// variants of one) from silently consuming each other's candidate
// layout.
func (b *Batch) WindowGather(owner any) (cands []PackedAtom, offs []int32, ok bool) {
	if !b.win.set || b.win.gatherOwner != owner || b.win.gatherStamp != b.win.stamp {
		return nil, nil, false
	}
	return b.win.cands, b.win.offs, true
}

// WindowGatherScratch claims the shared-gather cache for owner and the
// current window, returning the candidate buffer (reset to length zero;
// append via PackedNeighbors.GatherShared) and the offset slice sized
// nOffs (contents unspecified). Storage is reused across windows, so a
// warm search allocates nothing here.
func (b *Batch) WindowGatherScratch(owner any, nOffs int) (cands *[]PackedAtom, offs []int32) {
	b.win.gatherOwner = owner
	b.win.gatherStamp = b.win.stamp
	b.win.cands = b.win.cands[:0]
	if cap(b.win.offs) < nOffs {
		b.win.offs = make([]int32, nOffs)
	}
	b.win.offs = b.win.offs[:nOffs]
	return &b.win.cands, b.win.offs
}

// winSlack widens the live-pair threshold so floating-point rounding of
// the anchor-distance test can never contradict the real-arithmetic
// triangle-inequality argument; 1e-2 Å dwarfs every rounding term at
// Å-scale coordinates.
const winSlack = 1e-2

// WindowLivePairs returns the current window's live intramolecular
// pairs as ascending indices k ∈ [0, n) into the owner's pair table,
// whose entry k joins the two atoms that atoms(k) returns. A pair is
// dead when its anchor separation exceeds cutoff + 2·bound: each atom
// of a WindowValid pose moves at most bound from its anchor position,
// so the pair distance shrinks by at most 2·bound and a dead pair stays
// beyond the cutoff for every valid pose, contributing nothing. Live
// pairs keep table order, so skipping the dead ones cannot change a
// valid pose's accumulation sequence. The list is classified once per
// (owner, window) and cached on the batch; owner identity keeps the
// exact and fast kernels, which index different pair tables, from
// consuming each other's list. Only meaningful while Window reports
// ok.
//
// unit: cutoff=Å
func (b *Batch) WindowLivePairs(owner any, n int, cutoff float64, atoms func(k int) (i, j int32)) []int32 {
	if b.win.pairOwner == owner && b.win.pairStamp == b.win.stamp {
		return b.win.pairs
	}
	b.win.pairOwner = owner
	b.win.pairStamp = b.win.stamp
	live := b.win.pairs[:0]
	thr := cutoff + 2*b.win.bound + winSlack
	thr2 := thr * thr
	for k := 0; k < n; k++ {
		i, j := atoms(k)
		if b.win.anchor[i].Dist2(b.win.anchor[j]) <= thr2 {
			live = append(live, int32(k))
		}
	}
	b.win.pairs = live
	return live
}
