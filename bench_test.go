// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated artifact once (the same
// rows/series the paper reports) and then measures the cost of the
// underlying experiment call. Heavy intermediates (the 10,000-pair
// scalability sweep, the 952-pair docking campaign) are memoized on a
// shared suite, so the whole harness completes in minutes.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/prep"
	"repro/internal/sched"
)

var (
	suite     = &experiments.Suite{}
	printOnce sync.Map
)

// runExperiment executes one experiment, printing its artifact the
// first time it is produced.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := suite.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(name, true); !done {
			fmt.Printf("\n===== %s =====\n%s\n", name, out)
		}
	}
}

// --- one benchmark per table and figure ------------------------------

func BenchmarkTable1VMCharacteristics(b *testing.B) { runExperiment(b, "t1") }
func BenchmarkTable2Dataset(b *testing.B)           { runExperiment(b, "t2") }
func BenchmarkTable3DockingResults(b *testing.B)    { runExperiment(b, "t3") }
func BenchmarkFigure5Histogram(b *testing.B)        { runExperiment(b, "f5") }
func BenchmarkFigure6PerActivity(b *testing.B)      { runExperiment(b, "f6") }
func BenchmarkFigure7TET(b *testing.B)              { runExperiment(b, "f7") }
func BenchmarkFigure8Speedup(b *testing.B)          { runExperiment(b, "f8") }
func BenchmarkFigure9Efficiency(b *testing.B)       { runExperiment(b, "f9") }
func BenchmarkFigure10Query1(b *testing.B)          { runExperiment(b, "f10") }
func BenchmarkFigure11Query2(b *testing.B)          { runExperiment(b, "f11") }

// --- ablation benchmarks (design choices called out in DESIGN.md) ----

// BenchmarkAblationSchedulers compares the calibrated greedy scheduler
// with the naive round-robin baseline on the 10k-pair AD4 workload at
// 32 cores.
func BenchmarkAblationSchedulers(b *testing.B) {
	ds := data.Full()
	for _, tc := range []struct {
		name string
		s    sched.Scheduler
	}{
		{"greedy", func() sched.Scheduler { g := sched.NewGreedy(); g.WorkerCap = 32; return g }()},
		{"roundrobin", &sched.RoundRobin{WorkerCap: 32}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var tet float64
			for i := 0; i < b.N; i++ {
				s, err := core.PerfSweep(core.PerfConfig{
					Program: prep.ProgramAD4, Dataset: ds, CoresList: []int{32},
					Scheduler: tc.s, HgGuard: true, Steered: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				tet = s.Points[0].TET
			}
			b.ReportMetric(tet, "TETsec")
		})
	}
}

// BenchmarkAblationSteering quantifies the §V.C steering fixes: the
// same workload with and without the Hg guard + ligand blacklist.
func BenchmarkAblationSteering(b *testing.B) {
	ds := data.Full()
	for _, tc := range []struct {
		name           string
		guard, steered bool
	}{
		{"unsteered", false, false},
		{"steered", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var tet float64
			for i := 0; i < b.N; i++ {
				s, err := core.PerfSweep(core.PerfConfig{
					Program: prep.ProgramAD4, Dataset: ds, CoresList: []int{32},
					HgGuard: tc.guard, Steered: tc.steered,
				})
				if err != nil {
					b.Fatal(err)
				}
				tet = s.Points[0].TET
			}
			b.ReportMetric(tet, "TETsec")
		})
	}
}

// BenchmarkAblationFailureInjection measures the cost of the ~10%
// transient-failure re-execution on a real (small) campaign.
func BenchmarkAblationFailureInjection(b *testing.B) {
	ds, err := data.Small(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"with-failures", false},
		{"without-failures", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var tet float64
			for i := 0; i < b.N; i++ {
				camp, err := core.Run(core.Config{
					Mode: core.ModeAD4, Dataset: ds, Cores: 8,
					Effort: core.SmokeEffort(), HgGuard: true,
					DisableFailures: tc.disable, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				tet = camp.TET()
			}
			b.ReportMetric(tet, "TETsec")
		})
	}
}

// BenchmarkAblationDockingEffort scales the AD4 search effort on one
// pair, showing the accuracy/time trade the effort presets encode.
func BenchmarkAblationDockingEffort(b *testing.B) {
	ds := data.Dataset{Receptors: []string{"2HHN"}, Ligands: []string{"0E6"}}
	for _, tc := range []struct {
		name   string
		effort core.Effort
	}{
		{"smoke", core.SmokeEffort()},
		{"campaign", core.CampaignEffort()},
		{"quickstart", core.QuickEffort()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{
					Mode: core.ModeAD4, Dataset: ds, Cores: 2,
					Effort: tc.effort, HgGuard: true, DisableFailures: true, Seed: 11,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDockSinglePair measures the two docking engines head to
// head on one receptor-ligand pair (Vina's speed advantage is a core
// claim of the paper's program-choice discussion).
func BenchmarkDockSinglePair(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeAD4, core.ModeVina} {
		b.Run(mode.String(), func(b *testing.B) {
			ds := data.Dataset{Receptors: []string{"1HUC"}, Ligands: []string{"0D6"}}
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.Config{
					Mode: mode, Dataset: ds, Cores: 2,
					Effort: core.CampaignEffort(), HgGuard: true,
					DisableFailures: true, Seed: 13,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCostAwarePlanning asks the fleet-cost question of
// the engine itself: one timing campaign of the paper-scale AD4
// workload per fleet size, then per deadline the cheapest fleet whose
// measured TET meets it, or the fastest when none does — the economics
// behind "acquiring more than 32 VMs may not bring the expected
// benefit".
func BenchmarkAblationCostAwarePlanning(b *testing.B) {
	ds := data.Full()
	steered := map[string]bool{}
	for _, lig := range ds.Ligands {
		steered[lig] = data.LigandMeta(lig).Problematic
	}
	type fleet struct {
		cores    int
		tet, usd float64
	}
	var fleets []fleet
	for _, cores := range experiments.Cores {
		camp, err := core.RunTiming(core.Config{
			Mode: core.ModeAD4, Dataset: ds, Cores: cores,
			HgGuard: true, LigandBlacklist: steered,
		})
		if err != nil {
			b.Fatal(err)
		}
		fleets = append(fleets, fleet{cores, camp.Reports[0].TET, camp.Reports[0].CostUSD})
	}
	for _, tc := range []struct {
		name     string
		deadline float64
	}{
		{"deadline-1day", 86400},
		{"deadline-12h", 43200},
		{"deadline-8h", 28800},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pick fleet
			for i := 0; i < b.N; i++ {
				pick = fleets[0]
				for _, f := range fleets[1:] {
					switch meets, had := f.tet <= tc.deadline, pick.tet <= tc.deadline; {
					case meets && !had, meets && f.usd < pick.usd, !meets && !had && f.tet < pick.tet:
						pick = f
					}
				}
			}
			b.ReportMetric(float64(pick.cores), "cores")
			b.ReportMetric(pick.usd, "USD")
			b.ReportMetric(pick.tet/3600, "TEThours")
		})
	}
}

// BenchmarkAblationCostModelKnowledge compares scheduler orderings:
// oracle (true durations, a lower bound no real system has) vs the
// provenance-history estimates SciCumulus actually uses.
func BenchmarkAblationCostModelKnowledge(b *testing.B) {
	ds, err := data.Small(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		estimates bool
	}{
		{"oracle-ordering", false},
		{"provenance-estimates", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var tet float64
			for i := 0; i < b.N; i++ {
				camp, err := core.Run(core.Config{
					Mode: core.ModeAD4, Dataset: ds, Cores: 8,
					Effort: core.SmokeEffort(), HgGuard: true,
					DisableFailures: true, Seed: 17,
					ProvenanceEstimates: tc.estimates,
				})
				if err != nil {
					b.Fatal(err)
				}
				tet = camp.TET()
			}
			b.ReportMetric(tet, "TETsec")
		})
	}
}
