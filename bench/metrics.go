package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/sched"
)

// decl declares one metric: BENCHMARK.json lists exactly these, and a
// test keeps the two in step. Bound is the share of the baseline
// median by which an end-to-end metric may worsen (end-to-end only).
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// Every workload reports every end-to-end metric, so the set holds
// only what all four have: closed-loop operations (one pair docked
// under every engine configuration, or one campaign) with a wall time
// and a CPU cost, a set-up and a memory peak. All timings are medians:
// one search in four runs twice as long as the rest, so a mean over
// the few operations of a run follows the slow ones. The dock
// workloads time one fixed panel of searches (workloads.go, dockPanel),
// each entry at its quickest repeat (main.go, perEntry).
// The timing bounds are the widest allowed because the reference host
// is: the median of a fixed register-only loop over 25 s windows moved
// between 75 and 149 ms within minutes (README, "Noise floor").
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_cpu_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

func lowerAll(unit string, names ...string) []decl {
	out := make([]decl, len(names))
	for i, n := range names {
		out[i] = decl{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func perEngine(unit, better string, suffixes ...string) []decl {
	var out []decl
	for _, eng := range []string{"vina", "ad4"} {
		for _, s := range suffixes {
			out = append(out, decl{Name: eng + "." + s, Unit: unit, Better: better})
		}
	}
	return out
}

// activityTags maps the workflow's provenance tags to the short names
// the core.*_busy_s metrics use.
var activityTags = map[string]string{
	sched.TagBabel: "babel", sched.TagLigPrep: "ligprep", sched.TagRecPrep: "recprep",
	sched.TagGPF: "gpf", sched.TagAutoGrid: "autogrid", sched.TagFilter: "filter",
	sched.TagDockPrep: "dockprep", sched.TagDockAD4: "dock", sched.TagDockVina: "dock",
}

// perLayer is the traced run's metric set, grouped by the module whose
// exported API the number is taken around. The first group holds the
// path-specific end-to-end timings: they apply to one kind of workload
// only (the others measure them on a small probe), so they cannot be
// gated end-to-end metrics of every workload.
var perLayer = concat(
	lowerAll("ms", "dock_vina_exact_ms", "dock_vina_tol_ms", "dock_ad4_exact_ms", "dock_ad4_tol_ms", "pair_pipeline_ms"),
	lowerAll("s", "campaign_wall_s"),
	[]decl{{"pairs_per_s", "1/s", "higher", 0}},
	lowerAll("virt_s", "virtual_tet_s"),
	lowerAll("ms", "query_p50_ms", "query_p95_ms"),
	lowerAll("ratio", "failed_frac"),

	lowerAll("ns", "chem.kinematics_ns_per_pose", "chem.kinematics_batch_ns_per_pose"),
	lowerAll("ms", "formats.write_receptor_pdbqt_ms", "formats.write_dlg_ms", "formats.parse_pdbqt_ms"),
	lowerAll("ms", "prep.receptor_ms", "prep.ligand_ms"),
	lowerAll("ms", "grid.generate_ms", "grid.generate_1w_ms"),
	[]decl{{"grid.points_per_s", "1/s", "higher", 0}, {"grid.map_bytes", "bytes", "lower", 0}},
	perEngine("ms", "lower", "scorer_cold_ms", "scorer_warm_ms"),
	perEngine("ns", "lower", "score_ns_per_pose", "scorebatch_ns_per_pose", "scorebatchfast_ns_per_pose",
		"window_ns_per_pose", "windowfast_ns_per_pose"),
	perEngine("ms", "lower", "search_default_ms", "search_perpose_ms", "search_tol_ms", "search_1w_ms"),
	perEngine("ratio", "lower", "search_share"),
	perEngine("ratio", "higher", "batch_gain_kernel", "batch_gain_e2e", "tol_gain_e2e"),

	lowerAll("s", "core.babel_busy_s", "core.ligprep_busy_s", "core.recprep_busy_s", "core.gpf_busy_s",
		"core.autogrid_busy_s", "core.filter_busy_s", "core.dockprep_busy_s", "core.dock_busy_s"),
	lowerAll("count", "core.activations"),
	lowerAll("s", "engine.timing_chain_s"),
	[]decl{{"engine.activations_per_s", "1/s", "higher", 0}},
	lowerAll("ratio", "engine.self_share"),
	lowerAll("count", "engine.injected_failures", "engine.aborted"),
	lowerAll("s", "engine.barrier_wall_s"),
	lowerAll("virt_s", "engine.barrier_tet_s"),
	[]decl{{"sched.sweep_acts_per_s", "1/s", "higher", 0}},
	lowerAll("virt_s", "sched.sweep_tet_s"),
	lowerAll("count", "simfs.ops"),
	lowerAll("bytes", "simfs.bytes_written"),
	lowerAll("count", "prov.rows"),
	[]decl{{"prov.ingest_rows_per_s", "1/s", "higher", 0}},
	lowerAll("us", "prov.close_us"),
	lowerAll("ms", "prov.q1_ms", "prov.q2_ms"),
	lowerAll("us", "prov.topfeb_us", "prov.groupby_us", "prov.point_us"),
	lowerAll("ms", "prov.save_ms", "prov.load_ms"),
	lowerAll("bytes", "prov.archive_bytes"),
	[]decl{{"parallel.pool_cap", "count", "higher", 0},
		{"parallel.fanout_gain_vina", "ratio", "higher", 0},
		{"parallel.fanout_gain_ad4", "ratio", "higher", 0},
		{"parallel.occupancy_mean", "ratio", "higher", 0}},
	lowerAll("us", "campaign.submit_us"),
	lowerAll("ms", "campaign.queue_wait_ms", "campaign.manager_overhead_ms"),
	lowerAll("ms", "http.submit_ms", "http.status_p50_ms", "http.status_p95_ms"),
	lowerAll("us", "http.healthz_us", "http.query_overhead_us"),
	lowerAll("count", "http.polls"),
	lowerAll("ms", "http.gen_lag_p95_ms"),
	lowerAll("s", "rt.cpu_s"),
	[]decl{{"rt.cpu_util", "ratio", "higher", 0}},
	lowerAll("count", "rt.allocs_per_pair"),
	lowerAll("MB", "rt.alloc_mb_per_pair"),
	lowerAll("ratio", "rt.gc_cpu_frac"),
	lowerAll("MB", "rt.heap_peak_mb"),
	lowerAll("ratio", "trace.overhead_frac", "trace.unattributed_frac"),
)

func concat(groups ...[]decl) []decl {
	var out []decl
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// report collects one run's numbers: metric values (a timing is the
// median of its samples, which are kept for the quartile print-out),
// result checksums, and the attempted/failed tally every correctness
// check and operation counts into.
type report struct {
	mu        sync.Mutex // check is called from both served connections
	values    map[string]float64
	samples   map[string][]float64
	checksums map[string]string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string][]float64{}, checksums: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// dist records a sampled timing: the metric's value is the median.
func (r *report) dist(name string, xs []float64) {
	r.samples[name] = xs
	r.values[name] = median(xs)
}

// check counts one attempted operation or correctness check and, when
// it did not hold, one failure.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// print writes every recorded metric by name and unit (with quartiles
// and the sample count where it is a sampled timing), the checksums,
// and the failures.
func (r *report) print(w io.Writer) {
	units := map[string]string{}
	for _, d := range concat(endToEnd, perLayer) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("metric %-36s %14.6g %-6s", n, r.values[n], units[n])
		if xs := r.samples[n]; len(xs) > 0 {
			q1, _, q3 := quartiles(xs)
			line += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", q1, q3, len(xs))
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	sums := make([]string, 0, len(r.checksums))
	for n := range r.checksums {
		sums = append(sums, n)
	}
	sort.Strings(sums)
	for _, n := range sums {
		fmt.Fprintf(w, "checksum %-24s %s\n", n, r.checksums[n])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// resultLine is the machine-readable last line of a run's output: the
// declared metrics of the run's mode and nothing else.
func (r *report) resultLine(decls []decl) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range decls {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		metrics[d.Name] = mv{Value: v, Unit: d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
}
