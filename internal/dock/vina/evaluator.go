package vina

import (
	"math"

	"repro/internal/chem"
	"repro/internal/dock"
)

// evaluator is how localOptimize scores: against an incumbent. A
// compass pass probes poses that differ from the incumbent in one
// degree of freedom, and when that is a torsion only its branch moves
// — dock.Ligand.CoordsInto leaves every other atom's coordinates bit
// for bit where they were. Score is a sum of partial sums that each
// depend on a few atoms' coordinates alone (atomInter on one atom,
// groupIntra on two rigid fragments), so a probe takes over from the
// incumbent every partial whose inputs are bit-unchanged, recomputes
// the rest with the functions Score itself calls, and adds them up in
// Score's order: the value is Score(coords) to the last bit.
//
// What is reusable is decided by comparing coordinate bits, never by
// consulting the torsion tree, so the result cannot depend on the
// kinematics argument being right: if a probe moved more than expected
// it reuses less. A translation or rotation probe moves every atom and
// reuses nothing (a translation the box clamps back onto the incumbent
// reuses everything).
//
// The state is the worker's (dock.Workspace.Eval); the scorer stays
// read-only and shared. An evaluator value lives for one localOptimize
// call, on its stack.
type evaluator struct {
	s   *Scorer
	lig *dock.Ligand
	st  *dock.EvalState
}

func newEvaluator(s *Scorer, ws *dock.Workspace) evaluator {
	st := &ws.Eval
	st.Resize(len(s.frag), len(s.groups), s.nFrag)
	return evaluator{s: s, lig: ws.Ligand(), st: st}
}

// reset scores p in full, as Score does, and makes it the incumbent.
func (ev *evaluator) reset(p *dock.Pose) float64 {
	feb := ev.score(p, nil)
	ev.accept()
	return feb
}

// probe scores p, reusing the incumbent's partial sums wherever p's
// coordinates are the incumbent's. The incumbent is untouched until
// accept.
func (ev *evaluator) probe(p *dock.Pose) float64 {
	return ev.score(p, ev.st.Incumbent.Coords)
}

// accept makes the pose last scored the incumbent.
func (ev *evaluator) accept() {
	ev.st.Incumbent, ev.st.Probe = ev.st.Probe, ev.st.Incumbent
}

// score materializes p into the probe side and assembles its score,
// taking over the incumbent's partial sums for atoms whose coordinates
// equal anchor's bit for bit (nil: none do).
//
// exact: Score's partial sums, added in Score's order
func (ev *evaluator) score(p *dock.Pose, anchor []chem.Vec3) float64 {
	s, st := ev.s, ev.st
	inc, prb := &st.Incumbent, &st.Probe
	prb.Coords = ev.lig.CoordsInto(*p, prb.Coords)
	moved := st.Moved
	for f := range moved {
		moved[f] = false
	}
	var scr interScratch
	var inter, intra float64
	var scored, reused int64
	for i, c := range prb.Coords {
		same := anchor != nil && sameBits(c, anchor[i])
		if !same {
			moved[s.frag[i]] = true
		}
		if s.ligIsH[i] {
			continue
		}
		if same {
			prb.Atom[i] = inc.Atom[i]
			reused++
		} else {
			prb.Atom[i] = s.atomInter(i, c, &scr)
			scored++
		}
		inter += prb.Atom[i]
	}
	st.Stats.AtomSumsScored += scored
	st.Stats.AtomSumsReused += reused
	scored, reused = 0, 0
	for g, gr := range s.groups {
		if moved[gr.a] || moved[gr.b] {
			prb.Group[g] = s.groupIntra(g, prb.Coords)
			scored++
		} else {
			prb.Group[g] = inc.Group[g]
			reused++
		}
		intra += prb.Group[g]
	}
	st.Stats.IntraGroupsScored += scored
	st.Stats.IntraGroupsReused += reused
	st.Stats.Evaluations++
	return s.combine(inter, intra)
}

// sameBits reports whether two points have identical coordinate bits —
// stricter than ==, which calls +0 and −0 equal; a partial sum is only
// taken over when its input is literally the same.
func sameBits(a, b chem.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
