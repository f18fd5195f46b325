// Package engine reproduces the SciCumulus execution core: it fans a
// workflow's activations across a simulated EC2 virtual cluster,
// injects and recovers from activation failures, applies steering
// rules (the Hg guard of §V.C), stores files on the shared file
// system and captures full PROV-Wf provenance — while actually
// executing the activity bodies (real chemistry) on local goroutines.
//
// Two clocks coexist: the activity bodies run on wall-clock
// goroutines, while every activation is also assigned a virtual
// duration from the calibrated cost model and placed on a virtual
// cluster by the scheduler. Provenance timestamps are virtual, so the
// multi-day executions of the paper replay in seconds and the
// performance figures can be regenerated faithfully.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/parallel"
	"repro/internal/prov"
	"repro/internal/sched"
	"repro/internal/simfs"
	"repro/internal/workflow"
)

// ErrLoop marks an activation that entered the "looping state" of
// §V.C: the program neither finishes nor errors. The engine charges
// the loop-timeout and aborts the activation.
var ErrLoop = errors.New("engine: activation entered looping state")

// ErrCancelled marks a run aborted by its context: the campaign was
// cancelled while activations were still in flight. RunContext closes
// every not-yet-placed activation as ABORTED in provenance and returns
// the partial report alongside this error.
var ErrCancelled = errors.New("engine: campaign cancelled")

// cancelReason is the abort reason recorded on activations that were
// still pending when the run's context was cancelled.
const cancelReason = "campaign cancelled"

// AbortRule is a steering predicate evaluated before dispatch; a
// non-empty reason aborts the activation without running it (the
// routine added to SciCumulus to pre-filter Hg receptors).
type AbortRule func(activityTag string, t workflow.Tuple) (reason string, abort bool)

// Options configures a run.
type Options struct {
	// Cores is the virtual worker-core count (the x-axis of Figures
	// 7-9). VMs are leased to cover it; extra cores on the last VM
	// stay idle, as with the paper's 2-core baseline.
	Cores int
	// Runtime selects the dispatcher's stage policy: pipelined
	// dataflow (default), or a barrier between stages, kept for
	// ablation. One executor runs both; see dataflow.go.
	Runtime Runtime
	// Scheduler plans activations onto VM cores; defaults to the
	// calibrated greedy scheduler.
	Scheduler sched.Scheduler
	// Adaptive, when set, resizes the fleet between stages.
	Adaptive *sched.AdaptivePolicy
	// AbortRules are evaluated before each activation.
	AbortRules []AbortRule
	// Parallelism caps the wall-clock goroutines running activity
	// bodies; 0 = GOMAXPROCS. The run's worker pool is additionally
	// bounded by the process-wide CPU token budget (internal/parallel),
	// so engine workers, grid generation and the docking search pools
	// cannot jointly oversubscribe the machine.
	Parallelism int
	// Tokens, when set, routes the engine's worker fan-outs through a
	// per-campaign account on the shared CPU budget instead of the raw
	// process-global pool, so N concurrent campaigns degrade fairly
	// (each capped at its fair share of tokens). Nil = the global pool
	// directly; single-campaign behavior is identical either way.
	Tokens *parallel.Account
	// BaseTime anchors virtual timestamps; zero = 2014-03-01 UTC (the
	// paper's experiment window).
	BaseTime time.Time
	// DisableFailures turns off transient failure injection (for
	// ablation benchmarks).
	DisableFailures bool
	// ProvenanceEstimates makes the scheduler order activations by
	// the historical mean duration of their activity (mined from the
	// provenance already captured this run), as SciCumulus' weighted
	// cost model does — the scheduler cannot know true durations in
	// advance. Off = oracle ordering (the ablation baseline).
	ProvenanceEstimates bool
	// OnStageComplete, when set, receives a progress event whenever
	// an activity closes: the moment its last activation's placement
	// closes (under RuntimeBarrier, the end of its stage). The hook
	// behind the paper's runtime provenance monitoring and user
	// steering (§IV.B): the callback may query Engine.DB while the
	// workflow is mid-flight.
	OnStageComplete func(StageEvent)
}

// StageEvent is the runtime-steering progress snapshot delivered when
// an activity closes (all of its activations have finished).
type StageEvent struct {
	WorkflowID int64
	Activity   string
	Stats      ActivityStats
	Clock      float64 // virtual seconds elapsed since workflow start
	Engine     *Engine // for runtime provenance queries
}

// Engine executes workflows.
type Engine struct {
	opts    Options
	cost    *sched.CostModel // samples virtual activation costs
	DB      *prov.DB
	FS      *simfs.FS
	Sim     *cloud.Sim
	Cluster *cloud.Cluster

	// app batches the per-placement provenance writes (activation,
	// hfile, ddocking) into InsertBatch flushes. Flush points are
	// deterministic — buffer cap, before every OnStageComplete
	// steering hook, end of run — so runtime queries and final table
	// contents match unbatched writes exactly.
	app *prov.Appender

	mu       sync.Mutex
	nextWkf  int64
	nextAct  int64
	nextTask int64
	nextFile int64

	// Per-activity duration history for provenance-based estimates.
	histSum map[string]float64
	histN   map[string]int
}

// ActivityStats aggregates one activity's activations for reports.
type ActivityStats struct {
	Tag         string
	Activations int
	Failures    int // transient failures recovered by re-execution
	Aborted     int
	TotalSecs   float64 // virtual seconds across activations
	StageSecs   float64 // virtual busy span: first placement start to last end
}

// Report summarizes one workflow execution.
type Report struct {
	WorkflowID  int64
	TET         float64 // total execution time, virtual seconds
	Activations int
	Failures    int
	Aborted     int
	CostUSD     float64
	PerActivity []ActivityStats
	// Outputs holds the final relation (tuples that survived the
	// whole chain).
	Outputs []workflow.Tuple
}

// New builds an engine with fresh provenance, file system and virtual
// cluster.
func New(opts Options) (*Engine, error) {
	if opts.Cores < 1 {
		return nil, fmt.Errorf("engine: cores %d must be positive", opts.Cores)
	}
	if opts.Scheduler == nil {
		g := sched.NewGreedy()
		g.WorkerCap = opts.Cores
		opts.Scheduler = g
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.BaseTime.IsZero() {
		opts.BaseTime = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	db, err := prov.NewProvWfDB()
	if err != nil {
		return nil, err
	}
	sim := cloud.NewSim()
	return &Engine{
		opts:    opts,
		cost:    sched.NewCostModel(),
		DB:      db,
		FS:      simfs.New(),
		Sim:     sim,
		Cluster: cloud.NewCluster(sim),
		app:     prov.NewAppender(db, 0),
		histSum: make(map[string]float64),
		histN:   make(map[string]int),
	}, nil
}

// estimateFor returns the provenance-based duration belief for an
// activity tag: the mean of observed durations, or a neutral 1.0 when
// the tag has no history yet.
func (e *Engine) estimateFor(tag string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.histN[tag]; n > 0 {
		return e.histSum[tag] / float64(n)
	}
	return 1.0
}

// observeDuration folds a finished activation into the history.
func (e *Engine) observeDuration(tag string, secs float64) {
	e.mu.Lock()
	e.histSum[tag] += secs
	e.histN[tag]++
	e.mu.Unlock()
}

// vt converts virtual seconds to a provenance timestamp.
func (e *Engine) vt(secs float64) time.Time {
	return e.opts.BaseTime.Add(time.Duration(secs * float64(time.Second)))
}

// advanceSim moves the discrete-event clock forward to the workflow's
// current virtual time (never backwards).
func (e *Engine) advanceSim(to float64) {
	if to > e.Sim.Now() {
		e.Sim.After(to-e.Sim.Now(), func() {})
		e.Sim.Run()
	}
}

// grab sizes a worker fan-out against the campaign's token account
// when one is configured, the process-global pool otherwise.
func (e *Engine) grab(want int) (workers int, release func()) {
	if e.opts.Tokens != nil {
		return e.opts.Tokens.Grab(want)
	}
	return parallel.Tokens().Grab(want)
}

// Run executes the workflow over the input relation and returns the
// execution report. Provenance, files and the virtual bill accumulate
// on the engine. Run is RunContext with a background context.
func (e *Engine) Run(w *workflow.Workflow, input *workflow.Relation) (*Report, error) {
	return e.RunContext(context.Background(), w, input)
}

// RunContext is Run with cancellation: when ctx is cancelled
// mid-flight, every activation not yet placed on the virtual timeline
// closes in provenance as ABORTED ("# aborted: campaign cancelled"),
// worker pools drain, tokens are released, and the call returns the
// partial report together with an error wrapping ErrCancelled.
// Activations already placed keep their rows, so the provenance store
// faithfully records how far the campaign got.
func (e *Engine) RunContext(ctx context.Context, w *workflow.Workflow, input *workflow.Relation) (*Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if input == nil || input.Size() == 0 {
		return nil, fmt.Errorf("engine: workflow %q: empty input relation", w.Tag)
	}

	e.mu.Lock()
	e.nextWkf++
	wkfid := e.nextWkf
	e.mu.Unlock()
	if err := e.DB.InsertWorkflow(wkfid, w.Tag, w.Description, w.ExecTag, w.ExpDir); err != nil {
		return nil, err
	}

	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	actIDs := make(map[string]int64, len(order))
	for _, a := range order {
		e.mu.Lock()
		e.nextAct++
		id := e.nextAct
		e.mu.Unlock()
		actIDs[a.Tag] = id
		if err := e.DB.InsertActivity(id, wkfid, a.Tag, w.ExpDir+"template_"+a.Tag+"/", a.Template); err != nil {
			return nil, err
		}
		// The activity's declared Input/Output relations (Figure 2's
		// <Relation> elements) complete the PROV-Wf schema.
		if err := e.DB.InsertRelation(id*2-1, id, "rel_in_"+a.Tag, "Input", "input_"+a.Tag+".txt"); err != nil {
			return nil, err
		}
		if err := e.DB.InsertRelation(id*2, id, "rel_out_"+a.Tag, "Output", "output_"+a.Tag+".txt"); err != nil {
			return nil, err
		}
	}

	// Initial fleet.
	fleet, err := e.Cluster.BuildVirtualCluster(e.opts.Cores)
	if err != nil {
		return nil, err
	}

	report := &Report{WorkflowID: wkfid}
	// Workflows on a shared engine run back to back on one virtual
	// timeline (absolute provenance timestamps); each report's TET is
	// measured from its own start.
	start := e.Sim.Now()
	clock := start
	// Boot latency of the initial fleet delays the first activations.
	for _, vm := range fleet {
		if vm.ReadyAt > clock {
			clock = vm.ReadyAt
		}
	}

	err = e.runDataflow(ctx, order, actIDs, wkfid, input, fleet, report, &clock)
	// Publish any still-buffered provenance; even a failed run keeps
	// whatever rows it accumulated, as direct writes would have.
	if ferr := e.app.Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil && !errors.Is(err, ErrCancelled) {
		return nil, err
	}

	report.TET = clock - start
	// Advance the simulator so billing sees the full execution span.
	e.advanceSim(clock)
	report.CostUSD = e.Cluster.Cost()
	return report, err
}

// recordExtract stores domain extractor output into the ddocking
// table when the activation produced docking fields.
func (e *Engine) recordExtract(taskid, wkfid int64, extract map[string]string) error {
	if extract == nil {
		return nil
	}
	rec, ok1 := extract["receptor"]
	lig, ok2 := extract["ligand"]
	if !ok1 || !ok2 {
		return nil
	}
	feb := parseFloatDefault(extract["feb"], 0)
	rmsd := parseFloatDefault(extract["rmsd"], 0)
	nruns := int64(parseFloatDefault(extract["nruns"], 0))
	return e.app.InsertDocking(taskid, wkfid, rec, lig, extract["program"], feb, rmsd, nruns)
}

// parseFloatDefault parses a strict float literal (plain, decimal or
// exponent form); anything else — empty, garbage, or a number with
// trailing junk like "1.5abc" — yields the default. Sscanf was the
// previous implementation and silently accepted garbage suffixes.
func parseFloatDefault(s string, def float64) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return f
}

func activationKey(tag string, t workflow.Tuple) string {
	lig := t["LIGAND"]
	rec := t["RECEPTOR"]
	if lig == "" && rec == "" {
		return t.String()
	}
	return lig + "_" + rec
}
