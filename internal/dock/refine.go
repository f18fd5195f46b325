package dock

import "fmt"

// RefineResult is the outcome of a local pose refinement.
type RefineResult struct {
	Pose     Pose
	FEB      float64
	Improved float64 // energy gained vs the starting pose (≥ 0)
	Evals    int
}

// Refine performs the "redocking" refinement §V.D recommends for
// promising interactions: a Solis-Wets-style adaptive local search
// around an existing pose, without the global exploration phase. The
// returned pose is never worse than the input.
func Refine(s Scorer, lig *Ligand, box Box, start Pose, iterations int, seed int64) (RefineResult, error) {
	return RefineWorkspace(s, lig, box, start, iterations, seed, NewWorkspace(lig))
}

// RefineWorkspace is Refine evaluating through a caller-supplied
// workspace, so batch refiners (and the benchmarks pinning the
// allocation-free contract) reuse one scratch set across many poses.
// Candidate evaluation allocates nothing; only the returned result
// pose is a fresh copy.
func RefineWorkspace(s Scorer, lig *Ligand, box Box, start Pose, iterations int, seed int64, ws *Workspace) (RefineResult, error) {
	if iterations < 1 {
		return RefineResult{}, fmt.Errorf("dock: refinement needs ≥ 1 iteration")
	}
	if len(start.Torsions) != lig.NumTorsions() {
		return RefineResult{}, fmt.Errorf("dock: pose has %d torsions, ligand %d",
			len(start.Torsions), lig.NumTorsions())
	}
	r := ws.Rand(seed)
	cur, cand := ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	cur.Set(start)
	curFeb := s.Score(ws.Coords(*cur))
	startFeb := curFeb
	evals := 1
	rho := 0.6
	const rhoMin = 0.005
	succ, fail := 0, 0
	for it := 0; it < iterations && rho > rhoMin; it++ {
		PerturbInto(r, cand, *cur, rho, rho*0.3)
		ClampToBox(cand, box)
		feb := s.Score(ws.Coords(*cand))
		evals++
		if feb < curFeb {
			cur, cand = cand, cur
			curFeb = feb
			succ++
			fail = 0
		} else {
			fail++
			succ = 0
		}
		if succ >= 3 {
			rho *= 1.8
			succ = 0
		}
		if fail >= 3 {
			rho *= 0.55
			fail = 0
		}
	}
	return RefineResult{
		Pose:     cur.Clone(),
		FEB:      curFeb,
		Improved: startFeb - curFeb,
		Evals:    evals,
	}, nil
}
