package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/prep"
	"repro/internal/workflow"
)

// campSample is one finished campaign as the benchmark saw it.
type campSample struct {
	wallS float64 // submit → DONE, real seconds
	rows  int     // ddocking rows produced
	tet   float64 // Campaign.TET(), virtual seconds
	sum   string  // digest of the ddocking rows and the TET
}

const dockingSQL = "SELECT receptor, ligand, program, feb, rmsd, nruns FROM ddocking ORDER BY receptor, ligand, program"

// digestCampaign verifies a finished campaign — its ddocking rows are
// readable and no activation was left RUNNING — and digests what it
// produced. The digest covers every docking row and the virtual TET,
// so two routes that ran the same spec must agree on it exactly.
func digestCampaign(rep *report, camp *core.Campaign, what string) campSample {
	var s campSample
	if !rep.check(camp != nil, "%s: no campaign", what) {
		return s
	}
	res, err := camp.Engine.DB.Query(dockingSQL)
	if !rep.check(err == nil, "%s: ddocking query: %v", what, err) {
		return s
	}
	open, err := camp.Engine.DB.Query("SELECT count(*) FROM hactivation WHERE status = 'RUNNING'")
	rep.check(err == nil && len(open.Rows) == 1 && fmt.Sprint(open.Rows[0][0]) == "0",
		"%s: activations left RUNNING (%v)", what, err)
	s.rows, s.tet = len(res.Rows), camp.TET()
	h := fnv.New64a()
	fmt.Fprint(h, res.Format())
	fmt.Fprintf(h, "%016x", math.Float64bits(s.tet))
	s.sum = fmt.Sprintf("%016x", h.Sum64())
	rep.check(s.rows > 0, "%s: no ddocking rows", what)
	return s
}

// runManaged runs one campaign the way the command line does: Submit
// to a Manager, Wait for the terminal state. It also records how long
// Submit took and how long the campaign then waited to start running.
func runManaged(rep *report, m *campaign.Manager, spec campaign.Spec) (r managedRun) {
	t0 := time.Now()
	id, err := m.Submit(spec)
	r.submitUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	if !rep.check(err == nil, "submit %+v: %v", spec, err) {
		return r
	}
	for {
		st, err := m.Status(id)
		if err != nil || st.State != campaign.StateQueued {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	r.queueWaitMS = float64(time.Since(t0).Nanoseconds())/1e6 - r.submitUS/1e3
	camp, err := m.Wait(context.Background(), id)
	wall := time.Since(t0).Seconds()
	rep.check(err == nil, "campaign %d: %v", id, err)
	r.campSample = digestCampaign(rep, camp, fmt.Sprintf("managed campaign %d", id))
	r.wallS = wall
	return r
}

// activityBusy accumulates the real time spent inside each workflow
// activity's body. Bodies run concurrently, so the sums are busy time,
// not wall time.
type activityBusy struct {
	ns          map[string]*atomic.Int64 // by short activity name
	activations atomic.Int64
}

func newActivityBusy() *activityBusy {
	b := &activityBusy{ns: map[string]*atomic.Int64{}}
	for _, short := range activityTags {
		b.ns[short] = new(atomic.Int64)
	}
	return b
}

// runWrapped executes cfg as Campaign.Execute does — one workflow per
// docking program on one engine — but with every activity body wrapped
// in a span, which is the only way to see inside a campaign from
// outside the engine. The campaign it returns is identical to the
// managed route's (the digest proves it on every traced run).
func runWrapped(ctx context.Context, cfg core.Config, tr *tracer, op int, busy *activityBusy, timing bool) (*core.Campaign, error) {
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	programs := []prep.Program{prep.ProgramAD4, prep.ProgramVina}
	switch cfg.Mode {
	case core.ModeAD4:
		programs = programs[:1]
	case core.ModeVina:
		programs = programs[1:]
	}
	input := core.InputRelation(camp.Config.Dataset, camp.Config.ExpDir)
	root := tr.begin("campaign", -1, op)
	defer tr.end(root)
	for _, p := range programs {
		build := core.BuildWorkflow
		if timing {
			build = core.TimingWorkflow
		}
		w, err := build(camp.Config, p)
		if err != nil {
			return nil, err
		}
		wf := tr.begin("engine.run "+string(p), root, op)
		if busy != nil {
			for _, a := range w.Activities {
				a.Run = wrapBody(a.Tag, a.Run, tr, wf, op, busy)
			}
		}
		r, err := camp.Engine.RunContext(ctx, w, input)
		tr.end(wf)
		if r != nil {
			camp.Reports = append(camp.Reports, r)
		}
		if err != nil {
			return camp, fmt.Errorf("%s workflow: %w", p, err)
		}
	}
	return camp, nil
}

func wrapBody(tag string, body workflow.RunFunc, tr *tracer, parent, op int, busy *activityBusy) workflow.RunFunc {
	short := activityTags[tag]
	counter := busy.ns[short]
	return func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		id := tr.begin("core."+short, parent, op)
		t0 := time.Now()
		res, err := body(in)
		counter.Add(time.Since(t0).Nanoseconds())
		busy.activations.Add(1)
		tr.end(id)
		return res, err
	}
}
