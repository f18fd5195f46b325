package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// toyWorkflow builds a 3-activity chain: produce a file, transform,
// filter-out odd items.
func toyWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Tag: "Toy", Description: "test chain", ExecTag: "toy", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "babel", Op: workflow.Map, Template: "./babel %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{"MOL2": in["ID"] + ".mol2"})},
						Files: []workflow.OutputFile{{
							Name: in["ID"] + ".mol2", Dir: "/exp/babel/",
							Content: []byte("mol2 for " + in["ID"]),
						}},
					}, nil
				},
			},
			{
				Tag: "configprep", Op: workflow.Map, Template: "./prep %MOL2%", Depends: []string{"babel"},
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{Outputs: []workflow.Tuple{in}}, nil
				},
			},
			{
				Tag: "dockfilter", Op: workflow.Filter, Template: "./filter %ID%", Depends: []string{"configprep"},
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					res := &workflow.ActivationResult{}
					if strings.HasSuffix(in["ID"], "0") || strings.HasSuffix(in["ID"], "2") ||
						strings.HasSuffix(in["ID"], "4") || strings.HasSuffix(in["ID"], "6") ||
						strings.HasSuffix(in["ID"], "8") {
						res.Outputs = []workflow.Tuple{in}
					}
					return res, nil
				},
			},
		},
	}
}

func inputRelation(n int) *workflow.Relation {
	var tuples []workflow.Tuple
	for i := 0; i < n; i++ {
		tuples = append(tuples, workflow.Tuple{"ID": fmt.Sprintf("m%d", i)})
	}
	return workflow.NewRelation("rin", tuples)
}

func TestRunChain(t *testing.T) {
	e, err := New(Options{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Activations != 30 {
		t.Errorf("activations = %d, want 30", rep.Activations)
	}
	if len(rep.Outputs) != 5 {
		t.Errorf("filtered outputs = %d, want 5 (even IDs)", len(rep.Outputs))
	}
	if rep.TET <= 0 {
		t.Errorf("TET = %v", rep.TET)
	}
	if rep.CostUSD <= 0 {
		t.Errorf("cost = %v", rep.CostUSD)
	}
	// Provenance rows: 1 workflow, 3 activities, 30 activations, 10 files.
	if n := e.DB.NumRows(prov.TableWorkflow); n != 1 {
		t.Errorf("hworkflow rows = %d", n)
	}
	if n := e.DB.NumRows(prov.TableActivity); n != 3 {
		t.Errorf("hactivity rows = %d", n)
	}
	if n := e.DB.NumRows(prov.TableActivation); n != 30 {
		t.Errorf("hactivation rows = %d", n)
	}
	if n := e.DB.NumRows(prov.TableFile); n != 10 {
		t.Errorf("hfile rows = %d", n)
	}
	// Files actually live on the shared FS.
	files, err := e.FS.List("/exp/babel")
	if err != nil || len(files) != 10 {
		t.Errorf("staged files = %d, %v", len(files), err)
	}
}

func TestQuery1RunsAgainstEngineProvenance(t *testing.T) {
	e, _ := New(Options{Cores: 4})
	if _, err := e.Run(toyWorkflow(), inputRelation(6)); err != nil {
		t.Fatal(err)
	}
	res, err := e.DB.Query(`SELECT a.tag,
min(extract ('epoch' from (t.endtime-t.starttime))),
max(extract ('epoch' from (t.endtime-t.starttime))),
sum(extract ('epoch' from (t.endtime-t.starttime))),
avg(extract ('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid =1
GROUP BY a.tag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("query1 rows = %d\n%s", len(res.Rows), res.Format())
	}
	for _, row := range res.Rows {
		if row[3].(float64) <= 0 {
			t.Errorf("activity %v has non-positive total time", row[0])
		}
	}
}

func TestFailureInjectionAndRecovery(t *testing.T) {
	e, _ := New(Options{Cores: 8})
	rep, err := e.Run(toyWorkflow(), inputRelation(200))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Error("no transient failures injected over 600 activations")
	}
	// All inputs still made it through (failures are recovered).
	if len(rep.Outputs) != 100 {
		t.Errorf("outputs = %d, want 100", len(rep.Outputs))
	}
	// Disabled injection yields zero failures.
	e2, _ := New(Options{Cores: 8, DisableFailures: true})
	rep2, err := e2.Run(toyWorkflow(), inputRelation(50))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Failures != 0 {
		t.Errorf("failures with injection disabled = %d", rep2.Failures)
	}
}

func TestAbortRuleSteering(t *testing.T) {
	e, _ := New(Options{
		Cores: 4,
		AbortRules: []AbortRule{
			func(tag string, in workflow.Tuple) (string, bool) {
				if tag == "babel" && in["ID"] == "m3" {
					return "Hg present", true
				}
				return "", false
			},
		},
	})
	rep, err := e.Run(toyWorkflow(), inputRelation(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != 1 {
		t.Errorf("aborted = %d, want 1", rep.Aborted)
	}
	// m3 is odd-suffixed anyway; check the aborted row exists with
	// status ABORTED and the reason in the command.
	res, err := e.DB.Query("SELECT status, command FROM hactivation WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][1].(string), "Hg present") {
		t.Errorf("aborted rows: %v", res.Rows)
	}
}

func TestLoopingActivationChargedAndAborted(t *testing.T) {
	w := toyWorkflow()
	w.Activities[0].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		if in["ID"] == "m1" {
			return nil, ErrLoop
		}
		return &workflow.ActivationResult{Outputs: []workflow.Tuple{in}}, nil
	}
	e, _ := New(Options{Cores: 4, DisableFailures: true})
	rep, err := e.Run(w, inputRelation(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted != 1 {
		t.Errorf("aborted = %d", rep.Aborted)
	}
	// The looping activation burned LoopTimeout virtual seconds.
	res, err := e.DB.Query(`SELECT extract('epoch' from (endtime - starttime))
FROM hactivation WHERE status = 'ABORTED'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("aborted rows = %d", len(res.Rows))
	}
	if secs := res.Rows[0][0].(float64); secs < sched.LoopTimeout*0.5 {
		t.Errorf("loop charged only %v virtual seconds", secs)
	}
}

func TestGenuineErrorDropsTuple(t *testing.T) {
	w := toyWorkflow()
	w.Activities[1].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		if in["ID"] == "m0" {
			return nil, fmt.Errorf("atom type not recognized")
		}
		return &workflow.ActivationResult{Outputs: []workflow.Tuple{in}}, nil
	}
	e, _ := New(Options{Cores: 4, DisableFailures: true})
	rep, err := e.Run(w, inputRelation(4))
	if err != nil {
		t.Fatal(err)
	}
	// m0 dropped at stage 2; only m2 survives the even-filter.
	if len(rep.Outputs) != 1 || rep.Outputs[0]["ID"] != "m2" {
		t.Errorf("outputs = %v", rep.Outputs)
	}
	res, _ := e.DB.Query("SELECT command FROM hactivation WHERE status = 'FAILED'")
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].(string), "atom type") {
		t.Errorf("failed rows: %v", res.Rows)
	}
}

// TestPanicInBodyIsContained pins what caller code on a pool goroutine
// may do without taking the process down: a panicking body, a body
// that returns neither result nor error, and a panicking steering rule
// each cost one FAILED activation; the other tuples flow.
func TestPanicInBodyIsContained(t *testing.T) {
	w := toyWorkflow()
	w.Activities[0].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		switch in["ID"] {
		case "m2":
			panic("boom")
		case "m4":
			return nil, nil
		}
		return &workflow.ActivationResult{Outputs: []workflow.Tuple{in}}, nil
	}
	panickyRule := func(tag string, in workflow.Tuple) (string, bool) {
		if tag == "babel" && in["ID"] == "m6" {
			panic("rule boom")
		}
		return "", false
	}
	for _, rt := range []Runtime{RuntimeDataflow, RuntimeBarrier} {
		e, _ := New(Options{Cores: 4, Runtime: rt, AbortRules: []AbortRule{panickyRule}})
		rep, err := e.Run(w, inputRelation(8))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aborted != 3 {
			t.Errorf("runtime %v: aborted = %d, want 3: %+v", rt, rep.Aborted, rep)
		}
		// Of the even IDs only m0 survives babel.
		if len(rep.Outputs) != 1 || rep.Outputs[0]["ID"] != "m0" {
			t.Errorf("runtime %v: outputs = %v, want m0 only", rt, rep.Outputs)
		}
		res, err := e.DB.Query("SELECT command FROM hactivation WHERE status = 'FAILED' ORDER BY command")
		if err != nil {
			t.Fatal(err)
		}
		want := "[[./babel m2 # error: engine: activation panicked: boom]" +
			" [./babel m4 # error: activation returned no result]" +
			" [./babel m6 # error: engine: activation panicked: rule boom]]"
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("runtime %v: FAILED rows =\n %s, want\n %s", rt, got, want)
		}
	}
}

func TestFanOutViolationDropsTuple(t *testing.T) {
	w := toyWorkflow()
	w.Activities[1].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		// MAP contract violated: two outputs.
		return &workflow.ActivationResult{Outputs: []workflow.Tuple{in, in}}, nil
	}
	e, _ := New(Options{Cores: 4, DisableFailures: true})
	rep, err := e.Run(w, inputRelation(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != 0 {
		t.Errorf("contract-violating outputs propagated: %v", rep.Outputs)
	}
}

func TestMoreCoresFasterTET(t *testing.T) {
	tets := map[int]float64{}
	for _, cores := range []int{2, 16} {
		e, _ := New(Options{Cores: cores})
		rep, err := e.Run(toyWorkflow(), inputRelation(64))
		if err != nil {
			t.Fatal(err)
		}
		tets[cores] = rep.TET
	}
	if tets[16] >= tets[2] {
		t.Errorf("TET(16)=%v not faster than TET(2)=%v", tets[16], tets[2])
	}
}

func TestAdaptiveRun(t *testing.T) {
	pol := sched.NewAdaptivePolicy()
	pol.MinCores = 4
	pol.MaxCores = 32
	pol.TargetStageSeconds = 60
	e, _ := New(Options{Cores: 4, Adaptive: pol})
	rep, err := e.Run(toyWorkflow(), inputRelation(64))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TET <= 0 {
		t.Error("adaptive run produced no TET")
	}
	// The fleet grew beyond the initial 4 cores at some point.
	if len(e.Cluster.VMs()) <= 1 {
		t.Errorf("adaptive policy never resized (VMs=%d)", len(e.Cluster.VMs()))
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := New(Options{Cores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	e, _ := New(Options{Cores: 2})
	if _, err := e.Run(toyWorkflow(), workflow.NewRelation("r", nil)); err == nil {
		t.Error("empty input accepted")
	}
	bad := toyWorkflow()
	bad.Activities[0].Run = nil
	if _, err := e.Run(bad, inputRelation(2)); err == nil {
		t.Error("invalid workflow accepted")
	}
}

func TestMultipleWorkflowsShareProvenance(t *testing.T) {
	e, _ := New(Options{Cores: 4})
	if _, err := e.Run(toyWorkflow(), inputRelation(3)); err != nil {
		t.Fatal(err)
	}
	rep2, err := e.Run(toyWorkflow(), inputRelation(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.WorkflowID != 2 {
		t.Errorf("second workflow id = %d", rep2.WorkflowID)
	}
	res, _ := e.DB.Query("SELECT count(*) FROM hworkflow")
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("hworkflow rows = %v", res.Rows[0][0])
	}
}

func TestOnStageCompleteSteeringHook(t *testing.T) {
	for _, rt := range []Runtime{RuntimeDataflow, RuntimeBarrier} {
		var events []StageEvent
		e, _ := New(Options{
			Cores:   4,
			Runtime: rt,
			OnStageComplete: func(ev StageEvent) {
				events = append(events, ev)
				// Runtime provenance query mid-workflow, as §IV.B allows.
				res, err := ev.Engine.DB.Query("SELECT count(*) FROM hactivation")
				if err != nil || res.Rows[0][0].(int64) == 0 {
					t.Errorf("runtime query failed at stage %s: %v", ev.Activity, err)
				}
				// Every placement of the closing activity is already a
				// row: the steering query sees the stage whole.
				res, err = ev.Engine.DB.Query(fmt.Sprintf(`SELECT count(*)
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND a.tag = '%s' AND t.wkfid = %d`, ev.Activity, ev.WorkflowID))
				if err != nil {
					t.Errorf("runtime %v: stage %s: %v", rt, ev.Activity, err)
					return
				}
				if got := res.Rows[0][0].(int64); got != int64(ev.Stats.Activations) {
					t.Errorf("runtime %v: stage %s: %d hactivation rows, want %d", rt, ev.Activity, got, ev.Stats.Activations)
				}
			},
		})
		if _, err := e.Run(toyWorkflow(), inputRelation(5)); err != nil {
			t.Fatal(err)
		}
		if len(events) != 3 {
			t.Fatalf("runtime %v: stage events = %d, want 3", rt, len(events))
		}
		if events[0].Activity != "babel" || events[1].Activity != "configprep" || events[2].Activity != "dockfilter" {
			t.Errorf("runtime %v: event order: %v, %v, %v", rt, events[0].Activity, events[1].Activity, events[2].Activity)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Clock < events[i-1].Clock {
				t.Errorf("runtime %v: stage clock went backwards", rt)
			}
		}
	}
}

func TestReduceStageGroupsTuples(t *testing.T) {
	// Chain: babel (Map, annotates group) → summary (Reduce by GROUP).
	w := &workflow.Workflow{
		Tag: "R", Description: "reduce test", ExecTag: "r", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "annotate", Op: workflow.Map, Template: "./annotate %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					group := "even"
					if in["ID"] == "m1" || in["ID"] == "m3" || in["ID"] == "m5" {
						group = "odd"
					}
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{"GROUP": group})},
					}, nil
				},
			},
			{
				Tag: "summary", Op: workflow.Reduce, GroupKey: "GROUP",
				Template: "./summarize %GROUP%", Depends: []string{"annotate"},
				RunReduce: func(group []workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{{
							"GROUP": group[0]["GROUP"],
							"COUNT": fmt.Sprintf("%d", len(group)),
						}},
					}, nil
				},
			},
		},
	}
	e, _ := New(Options{Cores: 4, DisableFailures: true})
	rep, err := e.Run(w, inputRelation(6))
	if err != nil {
		t.Fatal(err)
	}
	// 6 annotate activations + 2 reduce activations.
	if rep.Activations != 8 {
		t.Errorf("activations = %d, want 8", rep.Activations)
	}
	if len(rep.Outputs) != 2 {
		t.Fatalf("reduce outputs = %d, want 2 groups", len(rep.Outputs))
	}
	counts := map[string]string{}
	for _, o := range rep.Outputs {
		counts[o["GROUP"]] = o["COUNT"]
	}
	if counts["even"] != "3" || counts["odd"] != "3" {
		t.Errorf("group counts = %v", counts)
	}
}

func TestReduceValidation(t *testing.T) {
	w := &workflow.Workflow{
		Tag: "R",
		Activities: []*workflow.Activity{
			{Tag: "r", Op: workflow.Reduce, GroupKey: "K"},
		},
	}
	if err := w.Validate(); err == nil {
		t.Error("reduce without RunReduce accepted")
	}
}

func TestSecondWorkflowTETNotCumulative(t *testing.T) {
	e, _ := New(Options{Cores: 4, DisableFailures: true})
	r1, err := e.Run(toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	// Same workload → same-magnitude TET; a cumulative bug would make
	// r2 roughly double r1.
	if r2.TET > r1.TET*1.5 {
		t.Errorf("second workflow TET %v inflated vs first %v", r2.TET, r1.TET)
	}
	// Provenance timestamps of workflow 2 start after workflow 1 ends
	// (one shared timeline).
	res, err := e.DB.Query(`SELECT min(extract('epoch' from starttime)) FROM hactivation WHERE wkfid = 2`)
	if err != nil {
		t.Fatal(err)
	}
	min2 := res.Rows[0][0].(float64)
	res, err = e.DB.Query(`SELECT max(extract('epoch' from endtime)) FROM hactivation WHERE wkfid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	max1 := res.Rows[0][0].(float64)
	if min2 < max1-1 {
		t.Errorf("workflow 2 started (%v) before workflow 1 ended (%v)", min2, max1)
	}
}
