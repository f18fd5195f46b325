package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/data"
)

// scale sizes everything that is not the workload itself: how often
// set-up and each layer probe repeat, and the probes' fixed inputs.
type scale struct {
	setups      int          // set-ups per run; setup_s is their median
	rounds      int          // repetitions of each layer probe
	population  int          // poses in the kernel-cell population
	searchSeeds int          // whole searches per engine option in the probes
	tracedOps   int          // most operations the traced pass repeats
	ingestRows  int          // rows of the store's ingest and close probes
	sweep       data.Dataset // scheduler sweep input
}

type kind int

const (
	dockKind kind = iota
	campaignKind
	servedKind
)

// workloadDef is one workload: what its timed operations run, and the
// small fixed inputs its traced run probes the other layers with.
type workloadDef struct {
	name, why string
	kind      kind
	pair      pairDef       // docked per operation, or probed
	spec      campaign.Spec // run per operation, or probed
	resident  campaign.Spec // served only: the campaign the queries read
	// The untimed warm-up operation of set-up: the workload's own
	// operation, cut down where a full one would cost more than the
	// table caches and lazy start-up it is there to fill.
	warmPair pairDef
	warmSpec campaign.Spec
	minOps   int // operations every run completes; their digests are the result checksum
}

// panel is the number of fixed operations the timed pass cycles
// through: a dock workload's first minOps searches, which every run
// completes. Campaigns have a seed each and no panel.
func (d workloadDef) panel() int {
	if d.kind == dockKind {
		return d.minOps
	}
	return 0
}

func largeEffort() core.Effort {
	e := core.CampaignEffort()
	e.VinaSteps = 2
	e.GridNPts, e.GridSpacing = 44, 1.0
	return e
}

// probePairOf is the pair a campaign workload's kernels are probed on:
// the first receptor and ligand of its dataset that the workflow docks
// (Hg receptors and looping ligands never reach a docking engine), at
// the campaign's own effort.
func probePairOf(spec campaign.Spec) pairDef {
	cfg, err := spec.Config()
	if err != nil {
		panic(fmt.Sprintf("bench: bad built-in spec: %v", err))
	}
	def := pairDef{Effort: cfg.Effort}
	for _, r := range cfg.Dataset.Receptors {
		if !data.ReceptorMeta(r).ContainsHg {
			def.Receptor = r
			break
		}
	}
	for _, l := range cfg.Dataset.Ligands {
		if !data.LigandMeta(l).Problematic {
			def.Ligand = l
			break
		}
	}
	return def
}

// definitions returns the four workloads and the scale, full size or
// shrunk to a smoke run that keeps every code path.
func definitions(smoke bool) ([]workloadDef, scale) {
	ref := pairDef{"2HHN", "0E6", core.QuickEffort()}
	large := pairDef{data.LargeReceptorCode, data.LargeLigandCode, largeEffort()}
	screen := campaign.Spec{Mode: "adaptive", Receptors: 30, Ligands: 4, Effort: "campaign", Cores: 16}
	served := campaign.Spec{Mode: "ad4", Receptors: 40, Ligands: 4, Effort: "smoke", Cores: 32}
	resident := campaign.Spec{Mode: "ad4", Receptors: 100, Ligands: 4, Effort: "smoke"}
	refProbe := campaign.Spec{Mode: "adaptive", Receptors: 2, Ligands: 1, Effort: "quick"}
	largeProbe := campaign.Spec{Mode: "adaptive", Receptors: 4, Ligands: 2, Effort: "campaign"}
	sc := scale{setups: 5, rounds: 5, population: 600, searchSeeds: 2, tracedOps: 4, ingestRows: 20000, sweep: data.Table3()}
	minOps := [4]int{dockPanel, dockPanel, 3, 16}
	if smoke {
		tiny := core.SmokeEffort()
		tiny.VinaExhaustiveness, tiny.VinaSteps = 1, 1
		tiny.AD4Runs, tiny.AD4PopSize, tiny.AD4Gens, tiny.AD4Evals = 1, 6, 2, 200
		// One local optimisation of the 35-torsion ligand alone takes half
		// a second, and so does a Vina dock at the smallest named effort;
		// the smoke run keeps the large receptor and the workflow, not those.
		ref.Effort, large.Ligand, large.Effort = tiny, ref.Ligand, tiny
		screen.Mode, screen.Receptors, screen.Ligands, screen.Effort = "ad4", 2, 1, "smoke"
		served.Receptors, served.Ligands = 3, 1
		resident.Receptors, resident.Ligands = 3, 1
		refProbe = campaign.Spec{Mode: "ad4", Receptors: 2, Ligands: 1, Effort: "smoke"}
		largeProbe = refProbe
		small := data.Dataset{Receptors: data.ReceptorCodes[:4], Ligands: data.LigandCodes[:1]}
		sc = scale{setups: 1, rounds: 1, population: 50, searchSeeds: 1, tracedOps: 1, ingestRows: 200, sweep: small}
		minOps = [4]int{1, 1, 1, 1}
	}
	screenPair, servedPair := probePairOf(screen), probePairOf(served)
	if smoke {
		screenPair.Effort, servedPair.Effort = ref.Effort, ref.Effort
	}
	// One search step of the 35-torsion ligand takes over half a second
	// and a 120-pair campaign several: their warm-ups keep every stage
	// and engine configuration but shorten the search and the dataset.
	largeWarm, screenWarm := large, screen
	largeWarm.Effort.VinaExhaustiveness, largeWarm.Effort.VinaSteps, largeWarm.Effort.AD4Runs = 1, 1, 1
	screenWarm.Receptors, screenWarm.Ligands = min(screen.Receptors, 8), min(screen.Ligands, 2)
	return []workloadDef{
		{name: "dock_ref", kind: dockKind, pair: ref, warmPair: ref, spec: refProbe, minOps: minOps[0],
			why: "single dock of 2HHN/0E6 whose exact tables fit L2: gather-bound, so window gather should pay; engine, prov and HTTP idle"},
		{name: "dock_large", kind: dockKind, pair: large, warmPair: largeWarm, spec: largeProbe, minOps: minOps[1],
			why: "single dock of 9XLR/XL1 whose exact tables overflow L2: kinematics and term evaluation dominate over gather"},
		{name: "screen_adaptive", kind: campaignKind, pair: screenPair, spec: screen, warmSpec: screenWarm, minOps: minOps[2],
			why: "the paper's deployment through the CLI path: adaptive AD4+Vina campaigns with the size filter and re-executed failures"},
		{name: "served_mixed", kind: servedKind, pair: servedPair, spec: served, warmSpec: served, resident: resident, minOps: minOps[3],
			why: "minimal chemistry over HTTP with SQL read beside the engine's writes: engine, sched, prov, simfs and HTTP do the work"},
	}, sc
}

// One search of the 35-torsion ligand takes 0.5 to 2 s depending on its
// seed alone (two chains of two local optimisations each, the slower
// one sets the time), and a run has time for nine of them: runs that
// drew their search seeds from -seed spread by 10-27 % of their median
// whatever the host did. The timed pass of a dock workload therefore
// cycles through one fixed panel of dockPanel searches, the same in
// every run, in an order drawn from -seed, and warms up on one more
// fixed seed. Campaigns, probes and kernel populations take their seeds
// from -seed.
const (
	dockPanel = 8
	panelSeed = 2014
)

// panelOrder returns the panel's search seeds in this run's order,
// shuffled by a spare seed that no operation, warm-up or probe uses.
func panelOrder(seeds []int64, n int) []int64 {
	panel := opSeeds(panelSeed)[:n]
	rand.New(rand.NewSource(seeds[len(seeds)-8])).Shuffle(n, func(i, j int) { panel[i], panel[j] = panel[j], panel[i] })
	return panel
}

// opSeeds derives every operation's seed (a search seed or a campaign
// seed) from the run's seed; operation i always gets opSeeds[i].
func opSeeds(seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	seeds := make([]int64, 4096)
	for i := range seeds {
		seeds[i] = 1 + r.Int63n(1<<40) // a zero campaign seed would mean "the default"
	}
	return seeds
}

// opSample is one closed-loop operation as the end-to-end metrics see
// it: its wall time, the docks it completed and a digest of its output.
type opSample struct {
	ms    float64
	cpuMS float64 // process CPU spent while it ran
	docks int
	sum   string
}

// workload is a set-up workload: op runs operation i of the timed
// pass; layers then fills the per-layer metrics, given what the pass's
// operations measured.
type workload interface {
	op(i int) (opSample, error)
	layers(tr *tracer, ops []opSample) error
	close()
}

// setup builds the workload's state and runs its untimed warm-up
// operation: a campaign on a spare seed of the run, or a dock on the
// first fixed seed past the panel (a cut-down search of the large pair
// takes 1 to 3 s depending on its seed, and setup_s would follow it).
func setup(def workloadDef, seeds []int64, rep *report, sc scale) (workload, error) {
	warm := seeds[len(seeds)-1] // never used by a timed operation
	switch def.kind {
	case dockKind:
		w := &dockWorkload{def: def, in: generatePair(def.pair), seeds: seeds, panel: panelOrder(seeds, def.panel()), rep: rep, sc: sc}
		warm = opSeeds(panelSeed)[dockPanel]
		_, err := dockPair(pairInputs{def: def.warmPair, rec: w.in.rec, rawLig: w.in.rawLig}, warm, -1, nil, rep)
		return w, err
	case campaignKind:
		w := &campaignWorkload{def: def, mgr: campaign.NewManager(nil, campaign.Limits{}), seeds: seeds, rep: rep, sc: sc}
		spec := def.warmSpec
		spec.Seed = warm
		runManaged(rep, w.mgr, spec)
		return w, nil
	default:
		srv, err := startServer(rep, def.resident)
		if err != nil {
			return nil, err
		}
		w := &servedWorkload{def: def, srv: srv, conn: newClient(srv.base), seeds: seeds, rep: rep, sc: sc}
		w.newest.Store(srv.resident)
		spec := def.warmSpec
		spec.Seed = warm
		srv.serveOne(rep, w.conn, spec, &w.newest, new(traffic))
		return w, nil
	}
}

// reportPairSamples records the per-configuration dock timings of a
// series of pair operations.
func reportPairSamples(rep *report, samples []pairSample) {
	col := func(f func(pairSample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	rep.dist("dock_vina_exact_ms", col(func(s pairSample) float64 { return s.dockCall(0, 0) }))
	rep.dist("dock_vina_tol_ms", col(func(s pairSample) float64 { return s.dockCall(0, 1) }))
	rep.dist("dock_ad4_exact_ms", col(func(s pairSample) float64 { return s.dockCall(1, 0) }))
	rep.dist("dock_ad4_tol_ms", col(func(s pairSample) float64 { return s.dockCall(1, 1) }))
	rep.dist("pair_pipeline_ms", col(pairSample.pipeline))
	pipeline := rep.values["pair_pipeline_ms"]
	rep.set("vina.search_share", median(col(func(s pairSample) float64 { return s.search[0][0] }))/pipeline)
	rep.set("ad4.search_share", median(col(func(s pairSample) float64 { return s.search[1][0] }))/pipeline)
	rep.set("vina.scorer_cold_ms", coldScorerMS[0])
	rep.set("ad4.scorer_cold_ms", coldScorerMS[1])
}

// probePairSide fills every pair-side metric of a workload whose timed
// operations are campaigns: a few whole pair operations, then the
// layer probes, on the workload's probe pair.
func probePairSide(rep *report, def pairDef, seeds []int64, sc scale) error {
	in := generatePair(def)
	var samples []pairSample
	for i := 0; i <= sc.searchSeeds; i++ {
		s, err := dockPair(in, seeds[len(seeds)-2-i], -1, nil, rep)
		if err != nil {
			return err
		}
		if i > 0 { // the first fills the table cache
			samples = append(samples, s)
		}
	}
	reportPairSamples(rep, samples)
	return probePair(rep, in, seeds[0], sc)
}

type dockWorkload struct {
	def     workloadDef
	in      pairInputs
	seeds   []int64
	panel   []int64 // search seeds of the timed operations, cycled
	rep     *report
	sc      scale
	samples []pairSample
}

func (w *dockWorkload) op(i int) (opSample, error) {
	s, err := dockPair(w.in, w.panel[i%len(w.panel)], i, nil, w.rep)
	w.samples = append(w.samples, s)
	return opSample{ms: s.total, docks: docksPerPairOp, sum: s.checksum}, err
}

func (w *dockWorkload) close() {}

// layers repeats the first quarter of the timed operations with a span
// around every exported call, checks that the spans account for the
// operation, and probes each layer on its own.
func (w *dockWorkload) layers(tr *tracer, ops []opSample) error {
	spec := w.def.spec
	spec.Seed = w.seeds[0]
	if err := probeCampaign(w.rep, nil, spec, nil, "", nil, w.sc); err != nil {
		return err
	}
	if err := probeServed(w.rep, spec, w.rep.checksums["campaign"], w.sc); err != nil {
		return err
	}
	if err := probePair(w.rep, w.in, w.seeds[0], w.sc); err != nil {
		return err
	}
	reportPairSamples(w.rep, w.samples)

	n := min(max(1, len(ops)/4), w.sc.tracedOps)
	var tracedMS, untracedMS float64
	for i := 0; i < n; i++ {
		s, err := dockPair(w.in, w.panel[i%len(w.panel)], i, tr, w.rep)
		if err != nil {
			return err
		}
		w.rep.check(s.checksum == ops[i].sum, "operation %d: traced digest %s differs from timed %s", i, s.checksum, ops[i].sum)
		tracedMS += s.total
		untracedMS += ops[i].ms
	}
	w.rep.set("trace.overhead_frac", tracedMS/untracedMS)
	// The stages of one pair run back to back, so their self times
	// must add up to the operation; what is left is benchmark glue.
	var stages, glue time.Duration
	for name, d := range tr.selfByName() {
		if name == "pair" {
			glue += d
		} else {
			stages += d
		}
	}
	w.rep.set("trace.unattributed_frac", glue.Seconds()/(glue+stages).Seconds())
	w.rep.check(stages.Seconds() >= 0.95*(glue+stages).Seconds(),
		"stage self times cover only %.1f%% of the traced operations", 100*stages.Seconds()/(glue+stages).Seconds())
	return nil
}

type campaignWorkload struct {
	def     workloadDef
	mgr     *campaign.Manager
	seeds   []int64
	rep     *report
	sc      scale
	samples []managedRun
}

func (w *campaignWorkload) op(i int) (opSample, error) {
	spec := w.def.spec
	spec.Seed = w.seeds[i]
	s := runManaged(w.rep, w.mgr, spec)
	w.samples = append(w.samples, s)
	return opSample{ms: s.wallS * 1e3, docks: s.rows, sum: s.sum}, nil
}

func (w *campaignWorkload) close() { w.mgr.Shutdown(context.Background()) }

func (w *campaignWorkload) layers(tr *tracer, ops []opSample) error {
	if err := probePairSide(w.rep, w.def.pair, w.seeds, w.sc); err != nil {
		return err
	}
	spec := w.def.spec
	spec.Seed = w.seeds[0]
	if err := probeCampaign(w.rep, tr, spec, &w.samples[0], ops[0].sum, nil, w.sc); err != nil {
		return err
	}
	if err := probeServed(w.rep, spec, ops[0].sum, w.sc); err != nil {
		return err
	}
	samples := make([]campSample, len(w.samples))
	for i, s := range w.samples {
		samples[i] = s.campSample
	}
	reportCampaignSamples(w.rep, samples)
	return nil
}

// reportCampaignSamples records the campaign timings of the timed
// pass. The virtual TET is the first campaign's, so that it repeats
// exactly however many campaigns the pass had time for.
func reportCampaignSamples(rep *report, samples []campSample) {
	walls := make([]float64, len(samples))
	rows := 0
	for i, s := range samples {
		walls[i] = s.wallS
		rows += s.rows
	}
	rep.dist("campaign_wall_s", walls)
	rep.set("pairs_per_s", float64(rows)/sum(walls))
	rep.set("virtual_tet_s", samples[0].tet)
}

type servedWorkload struct {
	def     workloadDef
	srv     *server
	conn    *client
	newest  atomic.Int64
	tf      traffic
	seeds   []int64
	rep     *report
	sc      scale
	samples []campSample
}

func (w *servedWorkload) op(i int) (opSample, error) {
	spec := w.def.spec
	spec.Seed = w.seeds[i]
	s := w.srv.serveOne(w.rep, w.conn, spec, &w.newest, &w.tf)
	w.samples = append(w.samples, s)
	return opSample{ms: s.wallS * 1e3, docks: s.rows, sum: s.sum}, nil
}

// load is connection B, run beside the timed operations.
func (w *servedWorkload) load(stop <-chan struct{}) { w.srv.queryLoad(w.rep, &w.newest, stop, &w.tf) }

func (w *servedWorkload) close() {
	w.conn.close()
	w.srv.close()
}

func (w *servedWorkload) layers(tr *tracer, ops []opSample) error {
	if err := probePairSide(w.rep, w.def.pair, w.seeds, w.sc); err != nil {
		return err
	}
	spec := w.def.spec
	spec.Seed = w.seeds[0]
	// The Manager re-run of the first served spec is the served == CLI
	// check: same TET, same ddocking rows.
	resident, err := w.srv.mgr.Wait(context.Background(), w.srv.resident)
	if err != nil {
		return err
	}
	if err := probeCampaign(w.rep, tr, spec, nil, ops[0].sum, resident.Engine.DB, w.sc); err != nil {
		return err
	}
	reportCampaignSamples(w.rep, w.samples)
	reportTraffic(w.rep, &w.tf)
	w.srv.idleProbes(w.rep, w.sc.rounds*10)
	return nil
}
