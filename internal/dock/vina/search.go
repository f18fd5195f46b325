package vina

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/fmath"
	"repro/internal/parallel"
	"repro/internal/prep"
)

// ProgramName is the banner written into log files, matching the
// version the paper deployed.
const ProgramName = "AutoDock Vina 1.1.2"

// Engine runs Vina's global optimization with the parameters of the
// configuration file.
type Engine struct {
	Config prep.VinaConfig
	// StepsPerRestart bounds each Monte-Carlo chain; scaled from the
	// config's exhaustiveness.
	StepsPerRestart int
	// Workers bounds the chain fan-out: 0 sizes it from the
	// process-wide CPU token budget (internal/parallel), 1 forces
	// sequential search, n > 1 uses exactly n workers. Output is
	// byte-identical for every value — chains have independent seeds
	// and merge in chain order.
	Workers int
	// MaxBatch is accepted and ignored; it stays only until bench/ stops assigning it.
	MaxBatch int
	// Precision is accepted and ignored; it stays only until bench/ stops assigning it.
	Precision dock.Precision
}

// mode is one distinct binding mode found during search, with the work
// counters of the chain that found it.
type mode struct {
	pose  dock.Pose
	feb   float64
	stats dock.Stats
}

// Dock runs iterated-local-search Monte Carlo: `exhaustiveness`
// independent chains of perturb→local-optimize→Metropolis steps,
// fanned over a bounded worker pool (real Vina threads its chains the
// same way). Each chain draws from its own seeded RNG and lands in
// its own modes slot, so the merged result is identical for any
// worker count. The distinct low-energy modes become the result's
// runs, with RMSD reported relative to the best mode — Vina's output
// convention (mode 1 has RMSD 0). A panic inside a chain — a scorer
// built for another ligand indexing out of range, say — is that
// chain's error, on whichever goroutine it ran: Dock returns the first
// one in chain order instead of taking the process down.
func (e *Engine) Dock(s *Scorer, lig *dock.Ligand) (*dock.Result, error) {
	if e.Config.Exhaustiveness <= 0 {
		return nil, fmt.Errorf("vina: exhaustiveness %d must be positive", e.Config.Exhaustiveness)
	}
	steps := e.StepsPerRestart
	if steps <= 0 {
		steps = 40
	}
	box := dock.Box{Center: e.Config.Center, Size: e.Config.Size}
	nChains := e.Config.Exhaustiveness
	modes := make([]mode, nChains)
	errs := make([]error, nChains)

	workers := e.Workers
	release := func() {}
	if workers <= 0 {
		workers, release = parallel.Tokens().Grab(nChains)
	}
	defer release()
	if workers > nChains {
		workers = nChains
	}
	// Each worker owns a workspace and pulls chains off one counter until
	// none are left; with one worker that is this goroutine.
	oneChain := func(chain int, ws *dock.Workspace) {
		// Chains execute on goroutines nobody else can guard.
		defer func() {
			if r := recover(); r != nil {
				errs[chain] = fmt.Errorf("vina: chain %d panicked: %v", chain, r)
			}
		}()
		modes[chain] = e.runChain(s, lig, box, chain, steps, ws)
	}
	var next atomic.Int64
	worker := func() {
		ws := dock.NewWorkspace(lig)
		for {
			chain := int(next.Add(1)) - 1
			if chain >= nChains {
				return
			}
			oneChain(chain, ws)
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
	return e.result(s, lig, modes)
}

// result turns the chains' modes into the docking result: the work
// counters summed, the distinct low-energy modes as runs.
func (e *Engine) result(s *Scorer, lig *dock.Ligand, modes []mode) (*dock.Result, error) {
	res := &dock.Result{
		Program:  ProgramName,
		Receptor: e.receptorName(s),
		Ligand:   lig.Mol.Name,
		Seed:     e.Config.Seed,
	}
	for _, m := range modes { // in chain order, before dedupeModes sorts them
		res.Stats.Add(m.stats)
	}
	kept := dedupeModes(lig, modes, 2.0, e.Config.NumModes)
	if len(kept) == 0 {
		return res, nil
	}
	bestCoords := lig.Coords(kept[0].pose)
	for i, m := range kept {
		rmsd := 0.0
		if i > 0 {
			v, err := chem.RMSD(lig.Coords(m.pose), bestCoords)
			if err != nil {
				return nil, fmt.Errorf("vina: rmsd: %w", err)
			}
			rmsd = v
		}
		res.Runs = append(res.Runs, dock.RunResult{
			Run: i + 1, Pose: m.pose, FEB: m.feb, RMSD: rmsd,
		})
	}
	return res, nil
}

// runChain executes one Monte-Carlo chain on its own seeded RNG. The
// chain seeds (Seed + chain·104729) are mutually independent, so
// chains can run on any worker in any order without changing their
// trajectories. All candidate evaluation goes through the worker's
// workspace: zero heap allocations per evaluation.
//
// As in Vina 1.1.2's monte_carlo, every candidate is optimised on the
// capped potential (quasiNewton with hunt set) and the Metropolis test
// compares that energy;
// a candidate accepted below the chain's best is refined on the
// authentic potential (localOptimize), and only a refined energy, which
// is Score's, can become the best. The random start is hunted and
// refined the same way.
func (e *Engine) runChain(s *Scorer, lig *dock.Ligand, box dock.Box, chain, steps int, ws *dock.Workspace) mode {
	r := ws.Rand(e.Config.Seed + int64(chain)*104729)
	ws.Stats = dock.Stats{} // the chain's own counters: workers run many chains
	cur, cand, best := ws.Get(), ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	defer ws.Put(best)
	dock.RandomPoseInto(r, cur, box, lig.NumTorsions())
	quasiNewton(s, ws, box, cur, true)
	curFeb := e.localOptimize(s, ws, box, cur)
	best.Set(*cur)
	bestFeb := curFeb
	const temperature = 1.2 // kcal/mol, Vina's Metropolis T
	for step := 0; step < steps; step++ {
		dock.PerturbInto(r, cand, *cur, 2.0, 0.5)
		dock.ClampToBox(cand, box)
		candFeb := quasiNewton(s, ws, box, cand, true)
		if candFeb < curFeb || r.Float64() < fmath.Exp((curFeb-candFeb)/temperature) {
			cur, cand = cand, cur
			curFeb = candFeb
			if curFeb < bestFeb {
				curFeb = e.localOptimize(s, ws, box, cur)
				if curFeb < bestFeb {
					best.Set(*cur)
					bestFeb = curFeb
				}
			}
		}
	}
	return mode{pose: best.Clone(), feb: bestFeb, stats: ws.Stats}
}

func (e *Engine) receptorName(s *Scorer) string {
	if s.Receptor != nil {
		return s.Receptor.Name
	}
	return e.Config.Receptor
}

// dedupeModes sorts modes by energy and drops poses within rmsdCut of
// an already-kept mode, keeping at most maxModes. Every mode's
// coordinates are materialized exactly once before the pairwise pass
// (they used to be recomputed inside it).
func dedupeModes(lig *dock.Ligand, ms []mode, rmsdCut float64, maxModes int) []mode {
	sort.Slice(ms, func(i, j int) bool { return ms[i].feb < ms[j].feb })
	if maxModes <= 0 {
		maxModes = 9
	}
	coords := make([][]chem.Vec3, len(ms))
	for i := range ms {
		coords[i] = lig.Coords(ms[i].pose)
	}
	var kept []mode
	var keptIdx []int
	for i, m := range ms {
		dup := false
		for _, k := range keptIdx {
			if v, err := chem.RMSD(coords[i], coords[k]); err == nil && v < rmsdCut {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		kept = append(kept, m)
		keptIdx = append(keptIdx, i)
		if len(kept) >= maxModes {
			break
		}
	}
	return kept
}
