package ad4

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/parallel"
	"repro/internal/prep"
)

// ProgramName is the banner written into DLG files, matching the
// version the paper deployed.
const ProgramName = "AutoDock 4.2.5.1"

// Engine runs Lamarckian-GA dockings with the parameters of a DPF.
type Engine struct {
	Params prep.DPF
	Box    dock.Box
	// Workers bounds the GA-run fan-out: 0 sizes it from the
	// process-wide CPU token budget (internal/parallel), 1 forces
	// sequential runs, n > 1 uses exactly n workers. Output is
	// byte-identical for every value — runs have independent seeds
	// and land in run order.
	Workers int
	// MaxBatch is accepted and ignored; it stays only until bench/ stops assigning it.
	MaxBatch int
	// Precision is accepted and ignored; it stays only until bench/ stops assigning it.
	Precision dock.Precision
}

// Dock executes Params.Runs independent LGA runs and collects the
// per-run best poses, energies and RMSDs (vs the ligand's input
// frame, AutoDock's DLG convention). Runs are fanned over a bounded
// worker pool; each run draws from its own seeded RNG
// (RandomSeed + run·7919) and fills its own slot, so the merged
// result is identical for any worker count. A panic inside a run — a
// scorer built for another ligand indexing out of range, say — is that
// run's error, on whichever goroutine it ran: Dock returns the first
// one in run order instead of taking the process down.
func (e *Engine) Dock(s *Scorer, lig *dock.Ligand) (*dock.Result, error) {
	if e.Params.Runs <= 0 || e.Params.PopSize <= 1 {
		return nil, fmt.Errorf("ad4: invalid GA parameters (runs=%d pop=%d)",
			e.Params.Runs, e.Params.PopSize)
	}
	res := &dock.Result{
		Program:  ProgramName,
		Receptor: s.Maps.Receptor,
		Ligand:   lig.Mol.Name,
		Seed:     e.Params.RandomSeed,
	}
	nRuns := e.Params.Runs
	runs := make([]dock.RunResult, nRuns)
	evals := make([]int, nRuns)
	errs := make([]error, nRuns)

	oneRun := func(run int, ws *dock.Workspace) {
		// Runs execute on goroutines nobody else can guard.
		defer func() {
			if r := recover(); r != nil {
				errs[run-1] = fmt.Errorf("ad4: run %d panicked: %v", run, r)
			}
		}()
		r := ws.Rand(e.Params.RandomSeed + int64(run)*7919)
		pose, feb, n := e.runLGA(r, s, lig, ws)
		rmsd, err := chem.RMSD(lig.Coords(pose), lig.Reference())
		if err != nil {
			errs[run-1] = fmt.Errorf("ad4: rmsd: %w", err)
			return
		}
		runs[run-1] = dock.RunResult{Run: run, Pose: pose, FEB: feb, RMSD: rmsd}
		evals[run-1] = n
	}

	workers := e.Workers
	release := func() {}
	if workers <= 0 {
		workers, release = parallel.Tokens().Grab(nRuns)
	}
	defer release()
	if workers > nRuns {
		workers = nRuns
	}
	// Each worker owns a workspace and pulls runs off one counter until
	// none are left; with one worker that is this goroutine.
	var next atomic.Int64
	worker := func() {
		ws := dock.NewWorkspace(lig)
		for {
			run := int(next.Add(1))
			if run > nRuns {
				return
			}
			oneRun(run, ws)
		}
	}
	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Runs = runs
	for _, n := range evals { // in run order
		res.Stats.Evaluations += int64(n)
	}
	return res, nil
}

type individual struct {
	pose dock.Pose
	feb  float64
}

// runLGA is one Lamarckian GA run: generational GA with tournament
// selection, uniform pose crossover, Cauchy mutation and Solis-Wets
// local search whose result is written back into the genome
// (Lamarckian inheritance). It returns the champion, its energy and
// the number of poses the run scored.
func (e *Engine) runLGA(r *rand.Rand, s *Scorer, lig *dock.Ligand, ws *dock.Workspace) (dock.Pose, float64, int) {
	nt := lig.NumTorsions()
	pop := make([]individual, e.Params.PopSize)
	next := make([]individual, e.Params.PopSize)
	for i := range pop {
		pop[i].pose.Torsions = make([]float64, 0, nt)
		next[i].pose.Torsions = make([]float64, 0, nt)
	}
	evals := 0
	score := func(p dock.Pose) float64 {
		evals++
		return s.Score(ws.Coords(p))
	}
	for i := range pop {
		dock.RandomPoseInto(r, &pop[i].pose, e.Box, nt)
		pop[i].feb = score(pop[i].pose)
	}
	best := individual{pose: dock.Pose{Torsions: make([]float64, 0, nt)}, feb: math.Inf(1)}
	for i := range pop {
		if pop[i].feb < best.feb {
			best.pose.Set(pop[i].pose)
			best.feb = pop[i].feb
		}
	}

	for gen := 0; gen < e.Params.Gens && evals < e.Params.Evals; gen++ {
		// Elitism: carry the best genome forward unchanged.
		next[0].pose.Set(best.pose)
		next[0].feb = best.feb
		for i := 1; i < len(pop); i++ {
			a := tournament(r, pop)
			b := tournament(r, pop)
			child := &next[i].pose
			if r.Float64() < e.Params.CrossRate {
				crossoverInto(r, child, pop[a].pose, pop[b].pose)
			} else {
				child.Set(pop[a].pose)
			}
			mutateInPlace(r, child, e.Params.MutRate, e.Box)
			feb := score(*child)
			// Lamarckian local search on a fraction of offspring.
			if r.Float64() < e.Params.LocalRate {
				feb = e.solisWets(r, s, ws, child, feb, &evals)
			}
			next[i].feb = feb
			if feb < best.feb {
				best.pose.Set(*child)
				best.feb = feb
			}
		}
		pop, next = next, pop
	}
	// Final local refinement of the champion.
	champ := ws.Get()
	defer ws.Put(champ)
	champ.Set(best.pose)
	// The refinement runs after the Evals budget stopped the
	// generations; its evaluations still count as work done.
	feb := e.solisWets(r, s, ws, champ, best.feb, &evals)
	if feb < best.feb {
		return champ.Clone(), feb, evals
	}
	return best.pose, best.feb, evals
}

func tournament(r *rand.Rand, pop []individual) int {
	a := r.Intn(len(pop))
	b := r.Intn(len(pop))
	if pop[a].feb <= pop[b].feb {
		return a
	}
	return b
}

// crossoverInto mixes two parent poses gene-wise into dst: translation
// lerp, orientation slerp and per-torsion pick. The RNG draw order
// (mix fraction first, then one draw per torsion) matches the original
// allocating crossover, so seeded trajectories are unchanged.
func crossoverInto(r *rand.Rand, dst *dock.Pose, a, b dock.Pose) {
	t := r.Float64()
	dst.Set(a)
	dst.Translation = a.Translation.Lerp(b.Translation, t)
	dst.Orientation = a.Orientation.Slerp(b.Orientation, t)
	for i := range dst.Torsions {
		if r.Float64() < 0.5 {
			dst.Torsions[i] = b.Torsions[i]
		}
	}
}

// mutateInPlace applies Cauchy-distributed gene perturbations at the
// given per-gene rate, clamping the translation back into the box.
func mutateInPlace(r *rand.Rand, p *dock.Pose, rate float64, box dock.Box) {
	cauchy := func(scale float64) float64 {
		return scale * math.Tan(math.Pi*(r.Float64()-0.5))
	}
	if r.Float64() < rate*10 { // translation gene
		p.Translation = p.Translation.Add(chem.V(cauchy(1.0), cauchy(1.0), cauchy(1.0)))
	}
	if r.Float64() < rate*10 { // orientation gene
		axis := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		p.Orientation = chem.AxisAngleQuat(axis, cauchy(0.3)).Mul(p.Orientation).Normalize()
	}
	for i := range p.Torsions {
		if r.Float64() < rate*10 {
			p.Torsions[i] = dock.WrapAngle(p.Torsions[i] + cauchy(0.3))
		}
	}
	dock.ClampToBox(p, box)
}

// solisWets is a simplified form of AutoDock's Solis-Wets local
// search: each step draws a fresh gaussian perturbation of the current
// pose (step scale rho: 0.5·rho Å on translation, 0.15·rho rad on
// orientation and torsions), clamps it into the box, and keeps it only
// if it lowers the energy.
// Four successes in a row double rho, four failures in a row halve
// it, and the search stops after LocalIts steps or once rho falls to
// 0.01. Unlike AutoDock it keeps no bias vector and never tries the
// opposite of a failed step. The pose is refined in place through the
// workspace — zero allocations per candidate — and the improved
// energy returned.
func (e *Engine) solisWets(r *rand.Rand, s *Scorer, ws *dock.Workspace, p *dock.Pose, feb float64, evals *int) float64 {
	rho := 1.0
	const rhoMin = 0.01
	succ, fail := 0, 0
	cur, cand := ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	cur.Set(*p)
	curFeb := feb
	for it := 0; it < e.Params.LocalIts && rho > rhoMin; it++ {
		dock.PerturbInto(r, cand, *cur, rho*0.5, rho*0.15)
		dock.ClampToBox(cand, e.Box)
		*evals++
		candFeb := s.Score(ws.Coords(*cand))
		if candFeb < curFeb {
			cur, cand = cand, cur
			curFeb = candFeb
			succ++
			fail = 0
		} else {
			fail++
			succ = 0
		}
		if succ >= 4 {
			rho *= 2
			succ = 0
		}
		if fail >= 4 {
			rho *= 0.5
			fail = 0
		}
	}
	p.Set(*cur)
	return curFeb
}
