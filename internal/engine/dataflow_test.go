package engine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/workflow"
)

// runRuntime executes one workflow on a fresh engine under the given
// runtime and returns engine + report.
func runRuntime(t *testing.T, rt Runtime, opts Options, w *workflow.Workflow, n int) (*Engine, *Report) {
	t.Helper()
	opts.Runtime = rt
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(w, inputRelation(n))
	if err != nil {
		t.Fatal(err)
	}
	return e, rep
}

// countsOf strips an ActivityStats list down to the runtime-invariant
// fields (timing legitimately differs between runtimes).
func countsOf(per []ActivityStats) []ActivityStats {
	out := make([]ActivityStats, len(per))
	for i, s := range per {
		out[i] = ActivityStats{Tag: s.Tag, Activations: s.Activations,
			Failures: s.Failures, Aborted: s.Aborted}
	}
	return out
}

func sortedTuples(ts []workflow.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// provRows returns the hactivation rows as a sorted multiset of their
// order-independent fields (taskids differ between runtimes: the
// barrier numbers per stage, the dataflow per placement).
func provRows(t *testing.T, e *Engine) []string {
	t.Helper()
	res, err := e.DB.Query("SELECT t.actid, t.status, t.failures, t.command FROM hactivation t")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return rows
}

// dockingRows returns the ddocking rows modulo taskid, sorted.
func dockingRows(t *testing.T, e *Engine) []string {
	t.Helper()
	res, err := e.DB.Query("SELECT d.receptor, d.ligand, d.program, d.feb, d.rmsd, d.nruns FROM ddocking d")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return rows
}

func assertGoldenMatch(t *testing.T, be, de *Engine, br, dr *Report) {
	t.Helper()
	if got, want := countsOf(dr.PerActivity), countsOf(br.PerActivity); !reflect.DeepEqual(got, want) {
		t.Errorf("per-activity counts diverge:\n dataflow %+v\n barrier  %+v", got, want)
	}
	if got, want := sortedTuples(dr.Outputs), sortedTuples(br.Outputs); !reflect.DeepEqual(got, want) {
		t.Errorf("final relations diverge:\n dataflow %v\n barrier  %v", got, want)
	}
	if got, want := provRows(t, de), provRows(t, be); !reflect.DeepEqual(got, want) {
		t.Errorf("hactivation rows diverge (%d vs %d)", len(got), len(want))
	}
	if got, want := dockingRows(t, de), dockingRows(t, be); !reflect.DeepEqual(got, want) {
		t.Errorf("ddocking rows diverge:\n dataflow %v\n barrier  %v", got, want)
	}
}

// TestDataflowMatchesBarrierGolden pins the equivalence contract: for
// a fixed seed the pipelined runtime produces the same final output
// relation, per-activity activation/failure/abort counts and
// provenance rows as the stage-barrier engine — with failure
// injection off and on (injected attempts are deterministic per
// activation key, so recovered-failure counts are schedule-invariant).
func TestDataflowMatchesBarrierGolden(t *testing.T) {
	for _, failures := range []bool{false, true} {
		opts := Options{Cores: 8, DisableFailures: !failures}
		be, br := runRuntime(t, RuntimeBarrier, opts, toyWorkflow(), 20)
		de, dr := runRuntime(t, RuntimeDataflow, opts, toyWorkflow(), 20)
		assertGoldenMatch(t, be, de, br, dr)
		if failures && dr.Failures == 0 {
			t.Error("failure injection produced no recovered failures")
		}
	}
}

// faultyWorkflow exercises every failure path: steering aborts (rule
// on IDs ending in 4), looping activations (IDs ending in 1), genuine
// errors (ending in 2), fan-out contract violations (a Map emitting
// two tuples, ending in 3), plus docking extract rows downstream.
func faultyWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Tag: "Faulty", Description: "failure paths", ExecTag: "faulty", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "src", Op: workflow.Map, Template: "./src %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					switch {
					case strings.HasSuffix(in["ID"], "1"):
						return nil, ErrLoop
					case strings.HasSuffix(in["ID"], "2"):
						return nil, errors.New("segfault in src")
					case strings.HasSuffix(in["ID"], "3"):
						return &workflow.ActivationResult{
							Outputs: []workflow.Tuple{in, in}, // Map contract violation
						}, nil
					}
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in},
						Files: []workflow.OutputFile{{
							Name: in["ID"] + ".out", Dir: "/exp/src/",
							Content: []byte("out " + in["ID"]),
						}},
					}, nil
				},
			},
			{
				Tag: "dock", Op: workflow.Map, Template: "./dock %ID%", Depends: []string{"src"},
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in},
						Extract: map[string]string{
							"receptor": "R_" + in["ID"], "ligand": "L_" + in["ID"],
							"program": "toy", "feb": "-6.25", "rmsd": "1.5", "nruns": "10",
						},
					}, nil
				},
			},
		},
	}
}

// TestDataflowFailurePathsGolden pins ErrLoop, steering aborts,
// genuine errors and CheckFanOut violations to the same provenance
// rows and stats as the barrier engine.
func TestDataflowFailurePathsGolden(t *testing.T) {
	abortTrailing4 := func(tag string, tu workflow.Tuple) (string, bool) {
		if tag == "src" && strings.HasSuffix(tu["ID"], "4") {
			return "blocklisted molecule", true
		}
		return "", false
	}
	opts := Options{Cores: 4, DisableFailures: true,
		AbortRules: []AbortRule{abortTrailing4}}
	be, br := runRuntime(t, RuntimeBarrier, opts, faultyWorkflow(), 30)
	de, dr := runRuntime(t, RuntimeDataflow, opts, faultyWorkflow(), 30)
	assertGoldenMatch(t, be, de, br, dr)

	// The workload is built to hit every path; make sure it did, per
	// status, identically in both runtimes.
	for _, e := range []*Engine{be, de} {
		res, err := e.DB.Query("SELECT t.status, count(*) FROM hactivation t GROUP BY t.status ORDER BY t.status")
		if err != nil {
			t.Fatal(err)
		}
		// 30 inputs: 3×ErrLoop(ABORTED) + 3×abort-rule(ABORTED),
		// 3×FAILED, the rest FINISHED (incl. 3 fan-out violations
		// which do finish but drop their tuples).
		want := "[[ABORTED 6] [FAILED 3] [FINISHED 39]]"
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("status histogram = %s, want %s", got, want)
		}
	}
	if dr.Aborted != br.Aborted || dr.Aborted != 12 {
		// 3 loops + 3 rule aborts + 3 errors + 3 fan-out drops.
		t.Errorf("aborted: dataflow %d, barrier %d, want 12", dr.Aborted, br.Aborted)
	}
}

// reduceWorkflow groups tuples by a 3-way key and emits one summary
// tuple per group.
func reduceWorkflow() *workflow.Workflow {
	return &workflow.Workflow{
		Tag: "Red", Description: "reduce", ExecTag: "red", ExpDir: "/exp/",
		Activities: []*workflow.Activity{
			{
				Tag: "tagger", Op: workflow.Map, Template: "./tag %ID%",
				Run: func(in workflow.Tuple) (*workflow.ActivationResult, error) {
					g := fmt.Sprintf("g%d", len(in["ID"])%3)
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{"GROUP": g})},
					}, nil
				},
			},
			{
				Tag: "summarize", Op: workflow.Reduce, Template: "./sum %GROUP%",
				Depends: []string{"tagger"}, GroupKey: "GROUP",
				RunReduce: func(group []workflow.Tuple) (*workflow.ActivationResult, error) {
					return &workflow.ActivationResult{
						Outputs: []workflow.Tuple{{
							"GROUP": group[0]["GROUP"],
							"N":     fmt.Sprintf("%d", len(group)),
						}},
					}, nil
				},
			},
		},
	}
}

// TestDataflowReduceMatchesBarrier checks the per-group barrier: the
// Reduce activity sees exactly the groups the barrier engine built.
func TestDataflowReduceMatchesBarrier(t *testing.T) {
	opts := Options{Cores: 4, DisableFailures: true}
	be, br := runRuntime(t, RuntimeBarrier, opts, reduceWorkflow(), 12)
	de, dr := runRuntime(t, RuntimeDataflow, opts, reduceWorkflow(), 12)
	assertGoldenMatch(t, be, de, br, dr)
	if len(dr.Outputs) == 0 || len(dr.Outputs) != len(br.Outputs) {
		t.Errorf("reduce groups: dataflow %d, barrier %d", len(dr.Outputs), len(br.Outputs))
	}
}

// TestDataflowDeterministic runs both stage policies with failure
// injection on (~10% per attempt), twice on a wide worker pool and
// once on a single worker: virtual time, stats and provenance must be
// bit-identical even though wall-clock body completion order is not.
// Under check.sh this runs with -race, covering dispatcher/pool
// synchronization.
func TestDataflowDeterministic(t *testing.T) {
	q := "SELECT t.taskid, t.status, t.starttime, t.endtime, t.vmid, t.failures, t.command FROM hactivation t ORDER BY t.taskid"
	for _, rt := range []Runtime{RuntimeDataflow, RuntimeBarrier} {
		var first *Report
		var firstRows string
		for _, pool := range []struct {
			name   string
			tokens *parallel.Account
		}{{"wide", nil}, {"wide", nil}, {"single-worker", parallel.NewPool(0).NewAccount()}} {
			e, r := runRuntime(t, rt, Options{Cores: 16, Tokens: pool.tokens}, faultyWorkflow(), 40)
			res, err := e.DB.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := fmt.Sprint(res.Rows)
			if first == nil {
				first, firstRows = r, rows
				if r.Failures == 0 {
					t.Error("expected injected failures at the default ~10% rate")
				}
				continue
			}
			if r.TET != first.TET {
				t.Errorf("runtime %v, %s pool: TET not deterministic: %v vs %v", rt, pool.name, r.TET, first.TET)
			}
			if !reflect.DeepEqual(r.PerActivity, first.PerActivity) {
				t.Errorf("runtime %v, %s pool: per-activity stats not deterministic:\n%+v\n%+v",
					rt, pool.name, r.PerActivity, first.PerActivity)
			}
			if rows != firstRows {
				t.Errorf("runtime %v, %s pool: hactivation timeline not deterministic across runs", rt, pool.name)
			}
		}
	}
}

// TestDataflowBarrierGate pins the gate: under RuntimeBarrier no
// activation of a stage starts before the last activation of the stage
// before it has ended (the straggler test's overlap query, for every
// edge of the chain).
func TestDataflowBarrierGate(t *testing.T) {
	e, _ := runRuntime(t, RuntimeBarrier, Options{Cores: 4}, toyWorkflow(), 20)
	res, err := e.DB.Query(`SELECT a.tag, min(extract ('epoch' from t.starttime)), max(extract ('epoch' from t.endtime))
FROM hactivity a, hactivation t WHERE a.actid = t.actid GROUP BY a.tag`)
	if err != nil {
		t.Fatal(err)
	}
	span := map[string][2]float64{}
	for _, r := range res.Rows {
		span[r[0].(string)] = [2]float64{r[1].(float64), r[2].(float64)}
	}
	acts := toyWorkflow().Activities
	for k := 1; k < len(acts); k++ {
		up, down := span[acts[k-1].Tag], span[acts[k].Tag]
		if down[1] <= down[0] {
			t.Fatalf("stage %s has no span: %v", acts[k].Tag, down)
		}
		if down[0] < up[1] {
			t.Errorf("stage %s starts at %v, before stage %s ends at %v", acts[k].Tag, down[0], acts[k-1].Tag, up[1])
		}
	}
}

// TestDataflowBeatsBarrierOnStragglers reproduces the motivating
// scenario: a looping activation charges the 1800s loop timeout on
// one core; the barrier engine idles the whole fleet behind it, the
// dataflow runtime lets every other tuple stream past. It also checks
// the structural pipelining evidence — a downstream activation starts
// before the slowest upstream one ends, which a barrier forbids.
func TestDataflowBeatsBarrierOnStragglers(t *testing.T) {
	opts := Options{Cores: 8}
	be, br := runRuntime(t, RuntimeBarrier, opts, faultyWorkflow(), 40)
	de, dr := runRuntime(t, RuntimeDataflow, opts, faultyWorkflow(), 40)
	if dr.TET >= br.TET {
		t.Errorf("pipelined TET %.3f not faster than barrier %.3f despite stragglers", dr.TET, br.TET)
	}
	overlapQ := `SELECT count(*)
FROM hactivity a, hactivation t, hactivity a2, hactivation t2
WHERE a.actid = t.actid AND a2.actid = t2.actid
AND a.tag = 'dock' AND a2.tag = 'src'
AND extract ('epoch' from (t2.endtime-t.starttime)) > 0`
	for _, tc := range []struct {
		e       *Engine
		overlap bool
	}{{be, false}, {de, true}} {
		res, err := tc.e.DB.Query(overlapQ)
		if err != nil {
			t.Fatal(err)
		}
		n := res.Rows[0][0].(int64)
		if tc.overlap && n == 0 {
			t.Error("dataflow: no dock activation started before the last src activation ended")
		}
		if !tc.overlap && n > 0 {
			t.Errorf("barrier: %d dock activations overlap the src stage", n)
		}
	}
}

// TestParseFloatDefault pins the strict float parsing of extractor
// fields (Sscanf used to accept garbage-suffixed input).
func TestParseFloatDefault(t *testing.T) {
	def := -1.0
	cases := []struct {
		in   string
		want float64
	}{
		{"", def},
		{"abc", def},
		{"1.5abc", def}, // the Sscanf regression: partial parse
		{"1.5.6", def},
		{"1e", def},
		{"--2", def},
		{" 2.5", def}, // no whitespace tolerance
		{"0", 0},
		{"-6.25", -6.25},
		{"1.5", 1.5},
		{"2.5e3", 2500},
		{"2.5E-2", 0.025},
		{"1e4", 10000},
		{".5", 0.5},
	}
	for _, c := range cases {
		if got := parseFloatDefault(c.in, def); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("parseFloatDefault(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
