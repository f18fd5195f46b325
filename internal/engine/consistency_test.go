package engine

import (
	"sort"
	"testing"

	"repro/internal/prov"
	"repro/internal/sched"
)

// TestReportMatchesProvenance cross-checks the engine's in-memory
// report against what an analyst would compute from SQL — the two
// views must agree, or provenance is lying.
func TestReportMatchesProvenance(t *testing.T) {
	e, err := New(Options{Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(toyWorkflow(), inputRelation(40))
	if err != nil {
		t.Fatal(err)
	}

	// Activation count.
	res, err := e.DB.Query("SELECT count(*) FROM hactivation")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Rows[0][0].(int64)); got != rep.Activations {
		t.Errorf("hactivation rows %d != report activations %d", got, rep.Activations)
	}

	// Transient failure count.
	res, err = e.DB.Query("SELECT sum(failures) FROM hactivation")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Rows[0][0].(float64)); got != rep.Failures {
		t.Errorf("sum(failures) %d != report failures %d", got, rep.Failures)
	}

	// Every finished activation has endtime >= starttime.
	res, err = e.DB.Query(
		"SELECT count(*) FROM hactivation WHERE endtime < starttime")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Error("activation with endtime before starttime")
	}

	// TET equals the maximum virtual end time (plus initial boot,
	// which both views include).
	res, err = e.DB.Query("SELECT max(extract('epoch' from endtime)) FROM hactivation")
	if err != nil {
		t.Fatal(err)
	}
	maxEnd := res.Rows[0][0].(float64)
	base := float64(baseTime.Unix())
	if got := maxEnd - base; got > rep.TET+1 {
		t.Errorf("provenance max end %.1f exceeds reported TET %.1f", got, rep.TET)
	}

	// File registrations point at files that exist on the shared FS.
	res, err = e.DB.Query("SELECT fdir, fname, fsize FROM hfile")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no hfile rows")
	}
	for _, row := range res.Rows {
		path := row[0].(string) + row[1].(string)
		size, err := e.FS.Stat(path)
		if err != nil {
			t.Errorf("registered file missing from FS: %s", path)
			continue
		}
		if size != row[2].(int64) {
			t.Errorf("file %s size mismatch: fs=%d prov=%d", path, size, row[2])
		}
	}

	// Status vocabulary is closed.
	res, err = e.DB.Query("SELECT status, count(*) FROM hactivation GROUP BY status")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		switch row[0].(string) {
		case prov.StatusFinished, prov.StatusFailed, prov.StatusAborted, prov.StatusRunning:
		default:
			t.Errorf("unknown activation status %q", row[0])
		}
	}
}

// TestVirtualTimelinePerCore checks the scheduler invariant end to
// end: no two activations overlap on the same (vm, core) in the
// provenance timeline.
func TestVirtualTimelinePerCore(t *testing.T) {
	e, _ := New(Options{Cores: 4})
	if _, err := e.Run(toyWorkflow(), inputRelation(60)); err != nil {
		t.Fatal(err)
	}
	res, err := e.DB.Query(`SELECT vmid,
extract('epoch' from starttime),
extract('epoch' from endtime)
FROM hactivation WHERE status = 'FINISHED' ORDER BY vmid, starttime`)
	if err != nil {
		t.Fatal(err)
	}
	// The provenance schema records the VM but not the core; sweep
	// the per-VM timeline and check concurrency never exceeds the
	// engine's worker cap (4 cores here).
	type event struct {
		t float64
		d int
	}
	perVM := map[string][]event{}
	for _, row := range res.Rows {
		vm := row[0].(string)
		perVM[vm] = append(perVM[vm],
			event{row[1].(float64), +1}, event{row[2].(float64), -1})
	}
	for vm, evs := range perVM {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].d < evs[j].d // close before open at the same instant
		})
		cur, max := 0, 0
		for _, ev := range evs {
			cur += ev.d
			if cur > max {
				max = cur
			}
		}
		if max > 4 {
			t.Fatalf("vm %s: %d concurrent activations exceed the 4-core cap", vm, max)
		}
	}
}

// TestAdaptiveReleasesReduceCost checks the elasticity economics: an
// adaptive fleet that shrinks between light stages accrues a bill no
// larger than holding the peak fleet for the whole run.
func TestAdaptiveReleasesReduceCost(t *testing.T) {
	pol := sched.NewAdaptivePolicy()
	pol.MinCores = 4
	pol.MaxCores = 32
	pol.TargetStageSeconds = 30
	ad, _ := New(Options{Cores: 4, Adaptive: pol, DisableFailures: true})
	rep, err := ad.Run(toyWorkflow(), inputRelation(100))
	if err != nil {
		t.Fatal(err)
	}
	vms := ad.Cluster.VMs()
	if len(vms) < 2 {
		t.Skip("policy never scaled; nothing to compare")
	}
	// Every lease ends with the workflow; the policy's own releases end
	// before it.
	released := 0
	for _, vm := range vms {
		if vm.StopAt < rep.TET {
			released++
		}
	}
	if released == 0 {
		t.Error("adaptive policy never released a VM mid-run")
	}
}

func TestRelationRowsRecorded(t *testing.T) {
	e, _ := New(Options{Cores: 2, DisableFailures: true})
	if _, err := e.Run(toyWorkflow(), inputRelation(2)); err != nil {
		t.Fatal(err)
	}
	res, err := e.DB.Query(`SELECT r.reltype, count(*)
FROM hrelation r GROUP BY r.reltype ORDER BY r.reltype`)
	if err != nil {
		t.Fatal(err)
	}
	// 3 activities × (1 input + 1 output).
	if len(res.Rows) != 2 ||
		res.Rows[0][1].(int64) != 3 || res.Rows[1][1].(int64) != 3 {
		t.Errorf("relation rows = %v", res.Rows)
	}
	// Relations join back to their activities.
	join, err := e.DB.Query(`SELECT a.tag, r.relname
FROM hactivity a, hrelation r
WHERE a.actid = r.actid AND r.reltype = 'Input'
ORDER BY a.actid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(join.Rows) != 3 || join.Rows[0][1].(string) != "rel_in_babel" {
		t.Errorf("relation join = %v", join.Rows)
	}
}

func TestProvenanceEstimatesMode(t *testing.T) {
	// With estimates on, runs still complete and the history
	// accumulates per activity tag.
	e, _ := New(Options{Cores: 4, ProvenanceEstimates: true, DisableFailures: true})
	rep, err := e.Run(toyWorkflow(), inputRelation(20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Activations == 0 {
		t.Fatal("no activations")
	}
	if got := e.estimateFor("babel"); got == 1.0 {
		t.Error("babel history not recorded (estimate still neutral)")
	}
	if got := e.estimateFor("never-ran"); got != 1.0 {
		t.Errorf("unknown tag estimate = %v, want neutral 1.0", got)
	}
	// Results identical to oracle mode in totals (ordering differs,
	// outcomes don't).
	e2, _ := New(Options{Cores: 4, DisableFailures: true})
	rep2, err := e2.Run(toyWorkflow(), inputRelation(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outputs) != len(rep2.Outputs) {
		t.Errorf("outputs differ between estimate modes: %d vs %d",
			len(rep.Outputs), len(rep2.Outputs))
	}
}

func TestMidRunAcquisitionPaysBootLatency(t *testing.T) {
	pol := sched.NewAdaptivePolicy()
	pol.MinCores = 4
	pol.MaxCores = 64
	pol.TargetStageSeconds = 10 // force aggressive scale-up
	e, _ := New(Options{Cores: 4, Adaptive: pol, DisableFailures: true})
	if _, err := e.Run(toyWorkflow(), inputRelation(120)); err != nil {
		t.Fatal(err)
	}
	// Some VM must have been acquired after t=0 (mid-run), with its
	// boot window starting at acquisition time.
	later := false
	for _, vm := range e.Cluster.VMs() {
		if vm.BootAt > 0 {
			later = true
			if vm.ReadyAt <= vm.BootAt {
				t.Errorf("vm %s has no boot latency", vm.ID)
			}
		}
	}
	if !later {
		t.Skip("policy acquired everything up front; nothing to check")
	}
}
