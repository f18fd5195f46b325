package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workflow"
)

// PerfConfig parameterizes the scalability sweep behind Figures 7-9:
// one timing campaign (RunTiming) over the full 10,000-pair workload
// per core count — the engine, scheduler, cloud model and provenance
// store every campaign runs on, without the chemistry, whose outputs
// the sweep does not consume.
type PerfConfig struct {
	Program   prep.Program
	Dataset   data.Dataset
	CoresList []int
	// Scheduler replaces the calibrated greedy (nil: one per core
	// count). It carries placement state, so a sweep that sets it runs
	// its points one at a time.
	Scheduler sched.Scheduler
	HgGuard   bool
	// Steered models the post-§V.C state of the deployment: the
	// problematic ligands have been identified via provenance and
	// blacklisted, so they dock normally instead of looping. The
	// paper's Figure 7-9 measurements are post-steering runs.
	Steered bool
}

// PerfSweep measures TET at each core count and returns the
// scalability series. Each point is an independent engine, so points
// run concurrently on the shared CPU budget and land by index:
// repeated sweeps agree exactly, and a sweep equals its points run
// alone.
func PerfSweep(cfg PerfConfig) (stats.Series, error) {
	if cfg.Dataset.NumPairs() == 0 {
		return stats.Series{}, fmt.Errorf("core: perf sweep over empty dataset")
	}
	if len(cfg.CoresList) == 0 {
		return stats.Series{}, fmt.Errorf("core: perf sweep needs core counts")
	}
	point := Config{
		Mode: ModeAD4, Dataset: cfg.Dataset,
		HgGuard: cfg.HgGuard, Scheduler: cfg.Scheduler,
	}
	label := "SciDock-AD4"
	if cfg.Program == prep.ProgramVina {
		point.Mode, label = ModeVina, "SciDock-Vina"
	}
	if cfg.Steered {
		point.LigandBlacklist = map[string]bool{}
		for _, lig := range cfg.Dataset.Ligands {
			point.LigandBlacklist[lig] = data.LigandMeta(lig).Problematic
		}
	}

	points := make([]stats.PerfPoint, len(cfg.CoresList))
	workers := 0
	if cfg.Scheduler != nil {
		workers = 1
	}
	err := parallel.For(len(points), workers, nil, func(i int, _ any) error {
		c := point
		c.Cores = cfg.CoresList[i]
		camp, err := RunTiming(c)
		if err != nil {
			return err
		}
		points[i] = stats.PerfPoint{Cores: c.Cores, TET: camp.TET()}
		return nil
	})
	if err != nil {
		return stats.Series{}, err
	}
	return stats.Series{Label: label, Points: points}, nil
}

// RunTiming executes cfg as a campaign of TimingWorkflow chains: what
// Run does — steering rules, scheduler, failure attempts, loop
// timeouts, billing, provenance — in virtual time only. Its reports
// carry the TET and the bill of the fleet; Figures 5-10 and the
// fleet-cost ablation are read from them and from its provenance.
func RunTiming(cfg Config) (*Campaign, error) {
	camp, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if err := camp.execute(context.Background(), TimingWorkflow); err != nil {
		return nil, err
	}
	return camp, nil
}

// TimingWorkflow builds a SciDock chain whose bodies keep the real
// ones' control verdicts and drop the chemistry (no molecules, no
// files): receptor preparation of an Hg receptor and docking of a
// problematic ligand that is not blacklisted enter the looping state,
// the docking filter — metadata only — is the real body, so an
// adaptive run splits receptors between the two workflows as the real
// one does, and everything else threads its tuple through. The engine
// charges loop timeouts, draws failure attempts and records full
// provenance with cost-model virtual durations exactly as for a real
// run; the 1,000-pair provenance milieu of the paper regenerates in
// well under a second.
func TimingWorkflow(cfg Config, program prep.Program) (*workflow.Workflow, error) {
	w, err := BuildWorkflow(cfg, program)
	if err != nil {
		return nil, err
	}
	pass := func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		return &workflow.ActivationResult{Outputs: []workflow.Tuple{in}}, nil
	}
	for _, a := range w.Activities {
		switch a.Tag {
		case sched.TagFilter:
			// Metadata only: the real body.
		case sched.TagRecPrep:
			a.Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
				if data.ReceptorMeta(in[FieldReceptor]).ContainsHg {
					return nil, engine.ErrLoop
				}
				return pass(in)
			}
		case sched.TagDockAD4, sched.TagDockVina:
			a.Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
				if cfg.ligandLoops(in[FieldLigand]) {
					return nil, engine.ErrLoop
				}
				return pass(in)
			}
		default:
			a.Run = pass
		}
	}
	return w, w.Validate()
}
