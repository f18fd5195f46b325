package core

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// Mode selects how SciDock assigns docking programs.
type Mode int

// Campaign modes.
const (
	// ModeAD4 forces AutoDock 4 for every pair (the paper's
	// Scenario I performance runs).
	ModeAD4 Mode = iota
	// ModeVina forces Vina for every pair (Scenario II).
	ModeVina
	// ModeAdaptive applies the docking filter: small receptors dock
	// with AD4, large with Vina — two workflows, as deployed.
	ModeAdaptive
)

func (m Mode) String() string {
	switch m {
	case ModeAD4:
		return "ad4"
	case ModeVina:
		return "vina"
	case ModeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a SciDock campaign.
type Config struct {
	Mode    Mode
	Dataset data.Dataset
	Cores   int
	Effort  Effort
	Seed    int64
	ExpDir  string

	// HgGuard enables the steering routine added in §V.C: receptors
	// known (from provenance) to carry Hg are aborted before
	// execution instead of looping.
	HgGuard bool
	// WriteMaps materializes AutoGrid's .map files on the shared file
	// system (the bulk of the paper's "600 GB per execution"). Off by
	// default: campaign-scale sweeps only need the in-memory grids.
	WriteMaps bool
	// LigandBlacklist marks problematic ligands discovered via
	// provenance; blacklisted ligands dock normally in this
	// reproduction (the paper re-ran them after parameter fixes).
	LigandBlacklist map[string]bool

	// Tokens, when set, charges the campaign's worker fan-outs to a
	// per-campaign account on the shared CPU budget, so concurrent
	// campaigns in one process degrade fairly. Nil = the global pool.
	Tokens *parallel.Account

	// Engine knobs (optional).
	Scheduler       sched.Scheduler
	Adaptive        *sched.AdaptivePolicy
	DisableFailures bool
	// Runtime selects the engine's stage policy: pipelined dataflow
	// (default) or a barrier between stages, kept for ablation. One
	// executor runs both.
	Runtime engine.Runtime
	// OnStageComplete receives runtime-steering snapshots after each
	// activity stage (§IV.B's runtime provenance monitoring).
	OnStageComplete func(engine.StageEvent)
	// ProvenanceEstimates orders scheduling by provenance history
	// instead of true durations (SciCumulus' weighted cost model).
	ProvenanceEstimates bool

	// rawFEB switches the FEB calibration off: docking results and
	// ddocking rows carry the size-normalised raw score, unrounded.
	// Only FitFEB sets it, to measure what the calibration is fitted to.
	rawFEB bool

	// store is the campaign's product store, set by NewCampaign so every
	// workflow built from the campaign's Config shares it, and cleared
	// when Execute returns. Nil means BuildWorkflow makes a private one.
	store *store
}

func (c *Config) fillDefaults() error {
	if c.Cores < 1 {
		return fmt.Errorf("core: cores %d must be positive", c.Cores)
	}
	if c.Dataset.NumPairs() == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	if c.Effort == (Effort{}) {
		c.Effort = CampaignEffort()
	}
	if c.ExpDir == "" {
		c.ExpDir = "/root/exp_SciDock/"
	}
	return c.Effort.Validate()
}

// Campaign is the outcome of one SciDock execution: the engine (with
// its provenance database, shared FS and bill) plus per-workflow
// reports.
type Campaign struct {
	Engine  *engine.Engine
	Reports []*engine.Report
	Config  Config

	// Execution plan, fixed at admission by NewCampaign.
	programs []prep.Program
	input    *workflow.Relation
}

// TET returns the campaign's total execution time in virtual seconds
// (workflows run back to back, as the paper's scenarios did).
func (c *Campaign) TET() float64 {
	var t float64
	for _, r := range c.Reports {
		t += r.TET
	}
	return t
}

// HgGuardRule is the steering routine of §V.C: it aborts
// receptor-preparation activations whose receptor carries Hg, using
// dataset metadata the scientists mined from provenance.
func HgGuardRule(tag string, t workflow.Tuple) (string, bool) {
	if tag != sched.TagRecPrep {
		return "", false
	}
	rec := t[FieldReceptor]
	if rec != "" && data.ReceptorMeta(rec).ContainsHg {
		return "Hg present in receptor " + rec, true
	}
	return "", false
}

// NewCampaign validates the config and builds the campaign's engine —
// provenance database, shared FS and virtual cluster — without running
// anything. The split lets a campaign service admit a campaign (and
// serve provenance queries against its live database) before and while
// Execute drives it.
func NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	opts := engine.Options{
		Cores:               cfg.Cores,
		Scheduler:           cfg.Scheduler,
		Adaptive:            cfg.Adaptive,
		Tokens:              cfg.Tokens,
		DisableFailures:     cfg.DisableFailures,
		Runtime:             cfg.Runtime,
		OnStageComplete:     cfg.OnStageComplete,
		ProvenanceEstimates: cfg.ProvenanceEstimates,
	}
	if cfg.HgGuard {
		opts.AbortRules = append(opts.AbortRules, HgGuardRule)
	}
	var programs []prep.Program
	switch cfg.Mode {
	case ModeAD4:
		programs = []prep.Program{prep.ProgramAD4}
	case ModeVina:
		programs = []prep.Program{prep.ProgramVina}
	case ModeAdaptive:
		programs = []prep.Program{prep.ProgramAD4, prep.ProgramVina}
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	eng, err := engine.New(opts)
	if err != nil {
		return nil, err
	}
	cfg.store = newStore(cfg)
	return &Campaign{
		Engine:   eng,
		Config:   cfg,
		programs: programs,
		input:    InputRelation(cfg.Dataset, cfg.ExpDir),
	}, nil
}

// Execute runs the campaign's workflows back to back on its engine.
// When ctx is cancelled mid-flight the engine closes pending
// activations as ABORTED, the partial report is still appended, and
// Execute returns an error wrapping engine.ErrCancelled; workflows not
// yet started are simply never run. However it ends, the product
// store ends with it: a finished Campaign holds provenance, staged
// files and reports, no molecule, lattice or receptor index.
func (c *Campaign) Execute(ctx context.Context) error {
	return c.execute(ctx, BuildWorkflow)
}

// execute is Execute over either set of activity bodies: the real ones
// (BuildWorkflow) or the timing ones (TimingWorkflow).
func (c *Campaign) execute(ctx context.Context, build func(Config, prep.Program) (*workflow.Workflow, error)) error {
	defer func() { c.Config.store = nil }()
	for _, p := range c.programs {
		w, err := build(c.Config, p)
		if err != nil {
			return err
		}
		rep, err := c.Engine.RunContext(ctx, w, c.input)
		if rep != nil {
			c.Reports = append(c.Reports, rep)
		}
		if err != nil {
			return fmt.Errorf("core: %s workflow: %w", p, err)
		}
	}
	return nil
}

// Run executes a SciDock campaign: one workflow for forced modes, two
// (AD4 then Vina) for adaptive mode, sharing one engine so provenance
// accumulates in a single database, as in the paper's deployment.
func Run(cfg Config) (*Campaign, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation threaded through the engine; on
// cancellation the partially executed campaign is returned alongside
// an error wrapping engine.ErrCancelled.
func RunContext(ctx context.Context, cfg Config) (*Campaign, error) {
	camp, err := NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if err := camp.Execute(ctx); err != nil {
		return camp, err
	}
	return camp, nil
}
