// Package experiments regenerates every table and figure of the
// paper's evaluation (§V): Tables 1-3 and Figures 5-11. Each
// experiment returns the text artifact (the same rows/series the
// paper reports); bench_test.go and cmd/dockbench are thin callers.
//
// Expensive intermediates (the scalability sweep, the timing run, the
// Table 3 docking campaign) are memoized on the Suite so composite
// invocations (e.g. `dockbench -exp all`) run each once.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/prep"
	"repro/internal/stats"
)

// Suite memoizes shared experiment state.
type Suite struct {
	// Quick reduces workloads (used by unit tests); production runs
	// use the paper-scale defaults.
	Quick bool

	sweepOnce sync.Once
	sweepAD4  stats.Series
	sweepVina stats.Series
	sweepErr  error

	timingOnce sync.Once
	timingCamp *core.Campaign
	timingErr  error

	t3Once sync.Once
	t3Camp *core.Campaign
	t3Err  error
}

// Cores is the x-axis of Figures 7-9.
var Cores = []int{2, 4, 8, 16, 32, 64, 128}

// mustSmall builds a quick dataset; data.Small fails only on
// non-positive sizes, which these fixed call sites never pass.
func mustSmall(pairs, ligands int) data.Dataset {
	ds, err := data.Small(pairs, ligands)
	if err != nil {
		panic(fmt.Sprintf("experiments: quick dataset: %v", err))
	}
	return ds
}

func (s *Suite) perfDataset() data.Dataset {
	if s.Quick {
		return mustSmall(40, 8)
	}
	return data.Full()
}

func (s *Suite) t3Dataset() data.Dataset {
	if s.Quick {
		return mustSmall(12, 4)
	}
	return data.Table3()
}

func (s *Suite) timingDataset() data.Dataset {
	if s.Quick {
		return mustSmall(30, 4)
	}
	return data.Table3() // the paper's "first 1,000 pairs"
}

// --- Table 1 ---------------------------------------------------------

// Table1 prints the VM characteristics table.
func (s *Suite) Table1() (string, error) {
	var sb strings.Builder
	sb.WriteString("TABLE 1. CHARACTERISTICS OF USED VMS\n")
	fmt.Fprintf(&sb, "%-12s %8s   %-20s %10s %10s\n",
		"Instance", "# cores", "Physical Processor", "USD/hour", "boot (s)")
	for _, it := range cloud.Catalog() {
		fmt.Fprintf(&sb, "%-12s %8d   %-20s %10.3f %10.0f\n",
			it.Name, it.Cores, it.Processor, it.HourlyUSD, it.BootSecs)
	}
	return sb.String(), nil
}

// --- Table 2 ---------------------------------------------------------

// Table2 prints the dataset inventory: the 238 receptors and 42
// ligands of clan Peptidase_CA with the synthetic metadata that
// drives the workflow (size classes, Hg receptors, problematic
// ligands).
func (s *Suite) Table2() (string, error) {
	var sb strings.Builder
	sb.WriteString("TABLE 2. RECEPTORS AND LIGANDS OF CLAN PEPTIDASE_CA (CL0125)\n")
	small, large, hg := 0, 0, 0
	for _, code := range data.ReceptorCodes {
		meta := data.ReceptorMeta(code)
		if meta.Class == data.SmallReceptor {
			small++
		} else {
			large++
		}
		if meta.ContainsHg {
			hg++
		}
	}
	problematic := 0
	for _, code := range data.LigandCodes {
		if data.LigandMeta(code).Problematic {
			problematic++
		}
	}
	fmt.Fprintf(&sb, "receptors: %d (small=%d -> AD4, large=%d -> Vina, Hg-bearing=%d)\n",
		len(data.ReceptorCodes), small, large, hg)
	fmt.Fprintf(&sb, "ligands:   %d (problematic=%d)\n", len(data.LigandCodes), problematic)
	fmt.Fprintf(&sb, "pairs:     %d (\"all-out 10,000 receptor-ligand pairs\")\n",
		data.Full().NumPairs())
	sb.WriteString("\nreceptor codes:\n")
	for i, code := range data.ReceptorCodes {
		fmt.Fprintf(&sb, "%-6s", code)
		if (i+1)%14 == 0 {
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("\nligand codes:\n")
	for i, code := range data.LigandCodes {
		fmt.Fprintf(&sb, "%-5s", code)
		if (i+1)%14 == 0 {
			sb.WriteByte('\n')
		}
	}
	sb.WriteByte('\n')
	return sb.String(), nil
}

// --- Table 3 ---------------------------------------------------------

// t3Config is the Table 3 sweep: every pair of the dataset docked by
// one program, no injected failures. The calibration fit runs the same
// sweep, so the constants are fitted to exactly what Table 3 reports.
func (s *Suite) t3Config(mode core.Mode) core.Config {
	effort := core.CampaignEffort()
	if s.Quick {
		effort = core.SmokeEffort()
	}
	return core.Config{
		Mode: mode, Dataset: s.t3Dataset(), Cores: 32,
		Effort: effort, HgGuard: true, DisableFailures: true, Seed: 3,
	}
}

func (s *Suite) table3Campaign() (*core.Campaign, error) {
	s.t3Once.Do(func() {
		// One engine accumulating both programs' provenance, as the
		// deployed system did.
		camp, err := core.Run(s.t3Config(core.ModeAD4))
		if err != nil {
			s.t3Err = err
			return
		}
		// Run the Vina workflow on the same engine.
		cfg := s.t3Config(core.ModeVina)
		cfg.ExpDir = camp.Config.ExpDir
		w, err := core.BuildWorkflow(cfg, prep.ProgramVina)
		if err != nil {
			s.t3Err = err
			return
		}
		rep, err := camp.Engine.Run(w, core.InputRelation(cfg.Dataset, cfg.ExpDir))
		if err != nil {
			s.t3Err = err
			return
		}
		camp.Reports = append(camp.Reports, rep)
		s.t3Camp = camp
	})
	return s.t3Camp, s.t3Err
}

// Table3 regenerates the per-ligand docking statistics (FEB(-)
// counts, average FEB, average RMSD for AD4 and Vina).
func (s *Suite) Table3() (string, error) {
	camp, err := s.table3Campaign()
	if err != nil {
		return "", err
	}
	ligands := data.Table3Ligands
	if s.Quick {
		ligands = s.t3Dataset().Ligands
	}
	rows, err := core.Table3(camp.Engine.DB, ligands)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("TABLE 3. RESULTS OF MOLECULAR DOCKING PROCESSES FOR SCIDOCK\n")
	sb.WriteString(core.FormatTable3(rows))
	// Headline counts: total FEB(-) per program.
	for _, prog := range []string{"autodock4", "vina"} {
		res, err := camp.Engine.DB.Query(fmt.Sprintf(
			"SELECT count(*) FROM ddocking WHERE program = '%s' AND feb < 0", prog))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "total FEB(-) with %s: %v (paper: %s)\n",
			prog, res.Rows[0][0], map[string]string{"autodock4": "287", "vina": "355"}[prog])
	}
	top, err := core.TopInteractions(camp.Engine.DB, 3)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "best interactions: %s\n", strings.Join(top, ", "))
	// AD4/Vina consensus, the association Chang et al. (2010) report
	// and §V.D leans on.
	cons, err := analysis.ConsensusReport(camp.Engine.DB)
	if err != nil {
		return "", err
	}
	sb.WriteString("\nAD4/Vina consensus (Chang et al. association):\n")
	sb.WriteString(analysis.FormatConsensus(cons))
	return sb.String(), nil
}

// Fit re-derives the FEB calibration constants of
// internal/core/calibrate.go from the Table 3 sweep (core.FitFEB). It
// is a maintenance command, not a paper artifact: `all` does not run
// it, and its output is pasted into calibrate.go by hand whenever a
// change moves what the sweep docks.
func (s *Suite) Fit() (string, error) {
	cfg := s.t3Config(core.ModeAD4)
	fits, err := core.FitFEB(cfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("FEB CALIBRATION FIT (%d pairs, seed %d)\n", cfg.Dataset.NumPairs(), cfg.Seed) +
		core.FormatFEBFits(fits), nil
}

// --- Figures 5/6/10: the 16-core timing run --------------------------

func (s *Suite) timingRun() (*core.Campaign, error) {
	s.timingOnce.Do(func() {
		s.timingCamp, s.timingErr = core.RunTiming(core.Config{
			Mode: core.ModeAD4, Dataset: s.timingDataset(), Cores: 16, HgGuard: true,
		})
	})
	return s.timingCamp, s.timingErr
}

// histogramQuery is the SQL of §V.C, verbatim (workflow id 1).
const histogramQuery = `SELECT extract ('epoch' from (t.endtime-t.starttime))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid = 1
ORDER BY t.endtime`

// Figure5 regenerates the activation execution-time histogram.
func (s *Suite) Figure5() (string, error) {
	camp, err := s.timingRun()
	if err != nil {
		return "", err
	}
	res, err := camp.Engine.DB.Query(histogramQuery)
	if err != nil {
		return "", err
	}
	samples := make([]float64, 0, len(res.Rows))
	for _, row := range res.Rows {
		samples = append(samples, row[0].(float64))
	}
	h, err := stats.NewHistogram(samples, 12)
	if err != nil {
		return "", err
	}
	mean, std := stats.MeanStd(samples)
	var sb strings.Builder
	sb.WriteString("FIGURE 5. Number of occurrences of SciDock activation times\n")
	sb.WriteString(h.Format())
	fmt.Fprintf(&sb, "activations=%d mean=%.1fs sd=%.1fs\n", len(samples), mean, std)
	return sb.String(), nil
}

// Figure6 regenerates the per-activity execution-time distribution at
// 16 cores.
func (s *Suite) Figure6() (string, error) {
	camp, err := s.timingRun()
	if err != nil {
		return "", err
	}
	res, err := camp.Engine.DB.Query(`SELECT a.tag,
count(*),
avg(extract ('epoch' from (t.endtime-t.starttime))),
sum(extract ('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid = 1
GROUP BY a.tag
ORDER BY sum(extract ('epoch' from (t.endtime-t.starttime))) DESC`)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("FIGURE 6. Execution time per activity (16 cores)\n")
	fmt.Fprintf(&sb, "%-16s %8s %12s %14s\n", "activity", "n", "avg (s)", "total (s)")
	for _, row := range res.Rows {
		fmt.Fprintf(&sb, "%-16s %8v %12.2f %14.1f\n",
			row[0], row[1], row[2].(float64), row[3].(float64))
	}
	return sb.String(), nil
}

// --- Figures 7-9: the scalability sweep ------------------------------

func (s *Suite) sweep() (stats.Series, stats.Series, error) {
	s.sweepOnce.Do(func() {
		ds := s.perfDataset()
		cores := Cores
		if s.Quick {
			cores = []int{2, 8, 32}
		}
		a, err := core.PerfSweep(core.PerfConfig{
			Program: prep.ProgramAD4, Dataset: ds, CoresList: cores,
			HgGuard: true, Steered: true,
		})
		if err != nil {
			s.sweepErr = err
			return
		}
		v, err := core.PerfSweep(core.PerfConfig{
			Program: prep.ProgramVina, Dataset: ds, CoresList: cores,
			HgGuard: true, Steered: true,
		})
		if err != nil {
			s.sweepErr = err
			return
		}
		s.sweepAD4, s.sweepVina = a, v
	})
	return s.sweepAD4, s.sweepVina, s.sweepErr
}

// Figure7 regenerates the TET-vs-cores curves for both programs.
func (s *Suite) Figure7() (string, error) {
	a, v, err := s.sweep()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("FIGURE 7. Total execution time of SciDock\n")
	sb.WriteString(stats.FormatSeries("TET", []stats.Series{a, v}, stats.FormatDuration))
	impA, errA := a.Improvement(32)
	impV, errV := v.Improvement(32)
	if errA == nil && errV == nil {
		fmt.Fprintf(&sb, "improvement@32 cores: AD4 %.1f%% (paper 95.4%%), Vina %.1f%% (paper 96.1%%)\n",
			impA*100, impV*100)
	}
	return sb.String(), nil
}

// Figure8 regenerates the speedup curves.
func (s *Suite) Figure8() (string, error) {
	a, v, err := s.sweep()
	if err != nil {
		return "", err
	}
	sa, err := a.Speedup()
	if err != nil {
		return "", err
	}
	sv, err := v.Speedup()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("FIGURE 8. Speedup of SciDock\n")
	sb.WriteString(stats.FormatSeries("speedup", []stats.Series{
		{Label: a.Label, Points: sa}, {Label: v.Label, Points: sv},
	}, nil))
	return sb.String(), nil
}

// Figure9 regenerates the efficiency curves.
func (s *Suite) Figure9() (string, error) {
	a, v, err := s.sweep()
	if err != nil {
		return "", err
	}
	ea, err := a.Efficiency()
	if err != nil {
		return "", err
	}
	ev, err := v.Efficiency()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("FIGURE 9. Efficiency of SciDock\n")
	sb.WriteString(stats.FormatSeries("efficiency", []stats.Series{
		{Label: a.Label, Points: ea}, {Label: v.Label, Points: ev},
	}, nil))
	return sb.String(), nil
}

// --- Figures 10/11: provenance queries -------------------------------

// Query1SQL is Figure 10's SQL, verbatim apart from the workflow id.
const Query1SQL = `SELECT a.tag,
min(extract ('epoch' from (t.endtime-t.starttime))),
max(extract ('epoch' from (t.endtime-t.starttime))),
sum(extract ('epoch' from (t.endtime-t.starttime))),
avg(extract ('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid =1
GROUP BY a.tag`

// Figure10 runs Query 1 against the timing run's provenance.
func (s *Suite) Figure10() (string, error) {
	camp, err := s.timingRun()
	if err != nil {
		return "", err
	}
	res, err := camp.Engine.DB.Query(Query1SQL)
	if err != nil {
		return "", err
	}
	return "FIGURE 10. Result of Query 1\n" + res.Format(), nil
}

// Query2SQL is Figure 11's query: names, sizes and locations of .dlg
// files with the producing workflow and activity.
const Query2SQL = `SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir
FROM hworkflow w, hactivity a, hfile f
WHERE w.wkfid = a.wkfid
AND a.actid = f.actid
AND f.fname LIKE '%.dlg'
ORDER BY f.fsize DESC
LIMIT 10`

// Figure11 runs Query 2 against the Table 3 campaign's provenance
// (real .dlg files on the shared file system).
func (s *Suite) Figure11() (string, error) {
	camp, err := s.table3Campaign()
	if err != nil {
		return "", err
	}
	res, err := camp.Engine.DB.Query(Query2SQL)
	if err != nil {
		return "", err
	}
	ops, br, bw := camp.Engine.FS.Stats()
	out := "FIGURE 11. Result of Query 2\n" + res.Format()
	out += fmt.Sprintf("shared FS: %d ops, %d bytes read, %d bytes written, %d bytes stored\n",
		ops, br, bw, camp.Engine.FS.TotalBytes())
	return out, nil
}

// All runs every experiment in paper order.
func (s *Suite) All() (string, error) {
	type exp struct {
		name string
		fn   func() (string, error)
	}
	exps := []exp{
		{"t1", s.Table1}, {"t2", s.Table2}, {"t3", s.Table3},
		{"f5", s.Figure5}, {"f6", s.Figure6}, {"f7", s.Figure7},
		{"f8", s.Figure8}, {"f9", s.Figure9}, {"f10", s.Figure10},
		{"f11", s.Figure11},
	}
	var sb strings.Builder
	for _, e := range exps {
		out, err := e.fn()
		if err != nil {
			return "", fmt.Errorf("experiments: %s: %w", e.name, err)
		}
		sb.WriteString(out)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// ByName dispatches one experiment by id ("t1".."t3", "f5".."f11",
// "all"), or the calibration fit ("fit").
func (s *Suite) ByName(name string) (string, error) {
	switch strings.ToLower(name) {
	case "t1":
		return s.Table1()
	case "t2":
		return s.Table2()
	case "t3":
		return s.Table3()
	case "f5":
		return s.Figure5()
	case "f6":
		return s.Figure6()
	case "f7":
		return s.Figure7()
	case "f8":
		return s.Figure8()
	case "f9":
		return s.Figure9()
	case "f10":
		return s.Figure10()
	case "f11":
		return s.Figure11()
	case "all":
		return s.All()
	case "fit":
		return s.Fit()
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q (want t1-t3, f5-f11, all) or fit", name)
	}
}
