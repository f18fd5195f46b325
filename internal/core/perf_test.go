package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/prep"
)

// TestSweepAnchors pins the reproduction to the paper's Figure 7-9
// shape. Bounds are generous (we reproduce shape, not absolute
// numbers) but catch calibration regressions. ~1 min; skipped with
// -short.
func TestSweepAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10k-pair sweep; skipped in -short mode")
	}
	cores := []int{2, 4, 8, 16, 32, 64, 128}
	tets := map[prep.Program]map[int]float64{}
	for _, prog := range []prep.Program{prep.ProgramAD4, prep.ProgramVina} {
		s, err := PerfSweep(PerfConfig{
			Program: prog, Dataset: data.Full(),
			CoresList: cores, HgGuard: true, Steered: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tets[prog] = map[int]float64{}
		for _, p := range s.Points {
			tets[prog][p.Cores] = p.TET
		}
		// Monotone decreasing TET.
		for i := 1; i < len(cores); i++ {
			if tets[prog][cores[i]] >= tets[prog][cores[i-1]] {
				t.Errorf("%s: TET did not improve from %d to %d cores", prog, cores[i-1], cores[i])
			}
		}
		// Improvement at 32 cores ≈ the paper's 95.4%/96.1%.
		imp, err := s.Improvement(32)
		if err != nil {
			t.Fatal(err)
		}
		if imp < 0.90 || imp > 0.97 {
			t.Errorf("%s: improvement@32 = %.1f%%, want ~94-96%% (paper: 95.4/96.1)", prog, imp*100)
		}
		// Near-linear speedup to 32 cores, degradation at 128.
		sp, err := s.Speedup()
		if err != nil {
			t.Fatal(err)
		}
		spAt := map[int]float64{}
		for _, p := range sp {
			spAt[p.Cores] = p.TET
		}
		if spAt[32] < 26 {
			t.Errorf("%s: speedup@32 = %.1f, want near-linear (>26)", prog, spAt[32])
		}
		if spAt[128] > 100 {
			t.Errorf("%s: speedup@128 = %.1f, expected visible degradation (<100)", prog, spAt[128])
		}
		eff, err := s.Efficiency()
		if err != nil {
			t.Fatal(err)
		}
		effAt := map[int]float64{}
		for _, p := range eff {
			effAt[p.Cores] = p.TET
		}
		if effAt[128] >= effAt[32] {
			t.Errorf("%s: efficiency did not drop from 32 (%.2f) to 128 (%.2f) cores",
				prog, effAt[32], effAt[128])
		}
	}
	// Paper headline anchors: AD4 ~12.5 days at 2 cores → hours at
	// 128; Vina ~9 days → ~7.7 hours; Vina faster than AD4 throughout.
	ad4, vina := tets[prep.ProgramAD4], tets[prep.ProgramVina]
	if d := ad4[2] / 86400; d < 9 || d > 16 {
		t.Errorf("AD4 TET@2 = %.1f days, paper reports 12.5", d)
	}
	if h := ad4[128] / 3600; h < 4 || h > 18 {
		t.Errorf("AD4 TET@128 = %.1f hours, paper reports 11.9", h)
	}
	if d := vina[2] / 86400; d < 6.5 || d > 12 {
		t.Errorf("Vina TET@2 = %.1f days, paper reports ~9", d)
	}
	if h := vina[128] / 3600; h < 3.5 || h > 12 {
		t.Errorf("Vina TET@128 = %.1f hours, paper reports 7.7", h)
	}
	for _, c := range cores {
		if vina[c] >= ad4[c] {
			t.Errorf("Vina (%v) not faster than AD4 (%v) at %d cores", vina[c], ad4[c], c)
		}
	}
}

func TestPerfSweepDeterministic(t *testing.T) {
	ds := mustSmall(t, 10, 3)
	cfg := PerfConfig{Program: prep.ProgramAD4, Dataset: ds, CoresList: []int{4, 8}, HgGuard: true}
	a, err := PerfSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PerfSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("sweep not deterministic: %+v vs %+v", a.Points[i], b.Points[i])
		}
	}
}

func TestPerfSweepValidation(t *testing.T) {
	if _, err := PerfSweep(PerfConfig{Program: prep.ProgramAD4}); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := mustSmall(t, 2, 2)
	if _, err := PerfSweep(PerfConfig{Program: prep.ProgramAD4, Dataset: ds}); err == nil {
		t.Error("no core list accepted")
	}
	if _, err := PerfSweep(PerfConfig{Program: prep.ProgramAD4, Dataset: ds, CoresList: []int{0}}); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestSteeringReducesTET(t *testing.T) {
	// Loop-aborts burn virtual time, so post-steering sweeps are
	// faster — the benefit §V.C claims.
	ds := data.Dataset{Receptors: data.ReceptorCodes[:40], Ligands: data.LigandCodes}
	base := PerfConfig{Program: prep.ProgramAD4, Dataset: ds, CoresList: []int{16}}
	unsteered, err := PerfSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	steered := base
	steered.HgGuard = true
	steered.Steered = true
	fast, err := PerfSweep(steered)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Points[0].TET >= unsteered.Points[0].TET {
		t.Errorf("steering did not reduce TET: %v vs %v",
			fast.Points[0].TET, unsteered.Points[0].TET)
	}
}

func TestTimingWorkflow(t *testing.T) {
	cfg := Config{Mode: ModeAD4, Dataset: mustSmall(t, 2, 2), Cores: 4, Effort: SmokeEffort()}
	w, err := TimingWorkflow(cfg, prep.ProgramAD4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Activities) != 8 {
		t.Errorf("activities = %d", len(w.Activities))
	}
	res, err := w.Activities[0].Run(map[string]string{"X": "1"})
	if err != nil || len(res.Outputs) != 1 || len(res.Files) != 0 {
		t.Errorf("timing body: %+v, %v", res, err)
	}
}

// TestPerfSweepEqualsSinglePoints: the sweep's points run concurrently
// and land by index, so a sweep is bit for bit its points run alone.
func TestPerfSweepEqualsSinglePoints(t *testing.T) {
	cfg := PerfConfig{
		Program: prep.ProgramAD4, Dataset: mustSmall(t, 20, 6),
		CoresList: []int{2, 8, 32}, HgGuard: true, Steered: true,
	}
	for round := 0; round < 2; round++ {
		sweep, err := PerfSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, cores := range cfg.CoresList {
			single := cfg
			single.CoresList = []int{cores}
			one, err := PerfSweep(single)
			if err != nil {
				t.Fatal(err)
			}
			if sweep.Points[i] != one.Points[0] {
				t.Errorf("round %d: sweep point %+v, alone %+v", round, sweep.Points[i], one.Points[0])
			}
		}
	}
}

// TestTimingWorkflowKeepsVerdicts: a timing campaign closes the same
// activations with the same statuses as the real one, over a dataset
// holding an Hg receptor, a problematic ligand and both size classes,
// whatever the steering.
func TestTimingWorkflowKeepsVerdicts(t *testing.T) {
	var hg, clean, bad, good string
	for _, code := range data.ReceptorCodes {
		if hg == "" && data.ReceptorMeta(code).ContainsHg {
			hg = code
		}
	}
	for _, code := range data.ReceptorCodes {
		meta := data.ReceptorMeta(code)
		if clean == "" && !meta.ContainsHg && meta.Class != data.ReceptorMeta(hg).Class {
			clean = code
		}
	}
	for _, code := range data.LigandCodes {
		if data.LigandMeta(code).Problematic {
			if bad == "" {
				bad = code
			}
		} else if good == "" {
			good = code
		}
	}
	if hg == "" || clean == "" || bad == "" || good == "" {
		t.Fatalf("dataset lacks a case: hg=%q clean=%q bad=%q good=%q", hg, clean, bad, good)
	}
	ds := data.Dataset{Receptors: []string{hg, clean}, Ligands: []string{bad, good}}

	// verdicts flattens a campaign to its per-activity counts and the
	// (workflow, tag, status) multiset of its provenance.
	verdicts := func(camp *Campaign) (counts []string, statuses map[string]int) {
		for _, rep := range camp.Reports {
			for _, st := range rep.PerActivity {
				counts = append(counts, fmt.Sprintf("%d/%s: %d activations, %d aborted",
					rep.WorkflowID, st.Tag, st.Activations, st.Aborted))
			}
		}
		res, err := camp.Engine.DB.Query(`SELECT a.wkfid, a.tag, t.status
FROM hactivity a, hactivation t WHERE a.actid = t.actid`)
		if err != nil {
			t.Fatal(err)
		}
		statuses = map[string]int{}
		for _, row := range res.Rows {
			statuses[fmt.Sprint(row)]++
		}
		return counts, statuses
	}

	type tc struct {
		mode             Mode
		guard, blacklist bool
	}
	cases := []tc{{ModeAdaptive, true, false}}
	for _, guard := range []bool{false, true} {
		for _, blacklist := range []bool{false, true} {
			cases = append(cases, tc{ModeAD4, guard, blacklist})
		}
	}
	for _, c := range cases {
		cfg := Config{Mode: c.mode, Dataset: ds, Cores: 4, Effort: SmokeEffort(), HgGuard: c.guard}
		if c.blacklist {
			cfg.LigandBlacklist = map[string]bool{bad: true}
		}
		real, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		timing, err := RunTiming(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantCounts, wantStatuses := verdicts(real)
		gotCounts, gotStatuses := verdicts(timing)
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("%+v: per-activity counts\n timing %v\n real   %v", c, gotCounts, wantCounts)
		}
		if !reflect.DeepEqual(gotStatuses, wantStatuses) {
			t.Errorf("%+v: (workflow, tag, status) rows\n timing %v\n real   %v", c, gotStatuses, wantStatuses)
		}
		if len(wantStatuses) == 0 {
			t.Errorf("%+v: no activation rows", c)
		}
	}
}

func mustSmall(t *testing.T, nr, nl int) data.Dataset {
	t.Helper()
	ds, err := data.Small(nr, nl)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestAdaptiveCampaignReleasesEachFleet: each workflow of an adaptive
// campaign leases its own fleet and releases it when it ends, so
// nothing is left running and each workflow is billed for its own span.
func TestAdaptiveCampaignReleasesEachFleet(t *testing.T) {
	camp, err := RunTiming(Config{Mode: ModeAdaptive, Dataset: mustSmall(t, 40, 6), Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Reports) != 2 {
		t.Fatalf("%d workflow reports, want 2", len(camp.Reports))
	}
	if running := camp.Engine.Cluster.RunningVMs(); len(running) != 0 {
		t.Errorf("%d VMs still leased after the campaign", len(running))
	}
	var ends []float64
	end := 0.0
	for _, rep := range camp.Reports {
		end += rep.TET
		ends = append(ends, end)
	}
	var usd float64
	for _, vm := range camp.Engine.Cluster.VMs() {
		k := 0
		for k < len(ends)-1 && vm.BootAt >= ends[k] {
			k++
		}
		if math.Abs(vm.StopAt-ends[k]) > 1e-6 {
			t.Errorf("VM %s leased at %.1f s stops at %.1f s, want workflow %d's end %.1f s",
				vm.ID, vm.BootAt, vm.StopAt, k, ends[k])
		}
		usd += math.Ceil((ends[k]-vm.BootAt)/3600) * vm.Type.HourlyUSD
	}
	if got := camp.Engine.Cluster.Cost(); math.Abs(got-usd) > 1e-9 {
		t.Errorf("bill $%.2f, want $%.2f for each fleet over its own workflow", got, usd)
	}
}
