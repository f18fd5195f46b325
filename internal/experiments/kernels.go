// Kernel microbenchmarks: machine-readable timings of the docking hot
// loops (AutoGrid map generation, Vina and AD4 scoring), each measured
// on its production table-backed path and on the analytic reference
// path it replaced. Two workloads are measured side by side: the
// reference pair (2HHN/0E6), whose exact radial tables fit in L2, and
// the L2-overflow pair (9XLR/XL1) — a 123-atom, 14-type, 35-torsion
// ligand whose exact working set spills the core-private caches, the
// regime the fast float32 banks and the incumbent-anchored window
// gather were built for. cmd/dockbench serializes the report to
// BENCH_kernels.json so perf regressions are diffable across commits.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// KernelBench is one measured kernel configuration.
type KernelBench struct {
	Name string `json:"name"`
	// Workload names the receptor/ligand pair the cell ran on
	// ("reference" or "large"); cells of different workloads are not
	// comparable to each other.
	Workload    string  `json:"workload,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Speedup is NsPerOp of the matching analytic baseline divided by
	// this entry's NsPerOp; only set on table-backed entries.
	Speedup float64 `json:"speedup_vs_analytic,omitempty"`
	// Batch-sweep cells only: the ScoreBatch chunk size, the op time
	// normalized per pose (one op scores the whole fixed population),
	// and the per-pose baseline's ns_per_pose divided by this cell's.
	// NsPerPose derives from the cell's fastest round; MedianNsPerPose
	// from the median round, the robust mid-estimate to read next to
	// the min when the rel_stddev is large.
	BatchSize        int     `json:"batch_size,omitempty"`
	NsPerPose        float64 `json:"ns_per_pose,omitempty"`
	MedianNsPerPose  float64 `json:"median_ns_per_pose,omitempty"`
	SpeedupVsPerPose float64 `json:"speedup_vs_per_pose,omitempty"`
	// Window cells only (incumbent-anchored shared gather): ns_per_pose
	// of the matching plain batch cell (same batch size, same
	// precision, same poses) divided by this cell's — the win from
	// gathering once per window instead of once per pose.
	SpeedupVsBatch float64 `json:"speedup_vs_batch,omitempty"`
	// Precision tags batch-sweep cells with the scoring path they
	// time: "exact" (ScoreBatch, bit-identical to Score) or
	// "tolerance" (ScoreBatchFast, bounded error).
	Precision string `json:"precision,omitempty"`
	// RelStdDev is the relative standard deviation of the per-round
	// wall times of a sweep cell — the noise floor against which its
	// speedup ratios should be read.
	RelStdDev float64 `json:"rel_stddev,omitempty"`
	// MaxAbsDeltaE is the largest |fast − exact| energy over the sweep
	// population, measured outside the timed region; only set on
	// tolerance cells. The population includes hard clashes whose
	// exact energy sits on the r⁻¹² wall (~1e8), so this raw delta is
	// dominated by the relative tolerance term there; read it against
	// MaxBoundExcess, which is the number the screening algebra
	// depends on.
	MaxAbsDeltaE float64 `json:"max_abs_delta_e,omitempty"`
	// MaxBoundExcess is the worst-case |fast − exact| − (FastAbsTol +
	// FastRelTol·|exact|) over the population: ≤ 0 means every pose
	// respected the engine's pinned tolerance envelope, and its
	// magnitude is the narrowest margin observed.
	MaxBoundExcess float64 `json:"max_bound_excess,omitempty"`
}

// WorkloadMeta describes one receptor/ligand workload of the kernel
// matrix: the shape numbers that set each cell's arithmetic intensity
// (atom, type and torsion counts) and the estimated resident bytes of
// the scoring tables each path streams per pose — the axis along which
// the exact kernels fall off the L2 cliff while the float32 fast banks
// stay resident.
type WorkloadMeta struct {
	Name          string `json:"name"`
	Receptor      string `json:"receptor"`
	ReceptorAtoms int    `json:"receptor_atoms"`
	Ligand        string `json:"ligand"`
	LigandAtoms   int    `json:"ligand_atoms"`
	AD4TypeCount  int    `json:"ad4_type_count"`
	Torsions      int    `json:"torsions"`
	GridNPts      int    `json:"grid_npts"`
	// Estimated exact/fast scoring working sets in bytes (radial table
	// storage reachable from the scorer's hot loops; see the engines'
	// {Exact,Fast}WorkingSetBytes).
	VinaExactTableBytes int `json:"vina_exact_table_bytes"`
	VinaFastTableBytes  int `json:"vina_fast_table_bytes"`
	AD4ExactTableBytes  int `json:"ad4_exact_table_bytes"`
	AD4FastTableBytes   int `json:"ad4_fast_table_bytes"`
}

// KernelReport is the full kernel benchmark result set.
type KernelReport struct {
	Workload   string         `json:"workload"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Note       string         `json:"note,omitempty"`
	Workloads  []WorkloadMeta `json:"workloads"`
	Benchmarks []KernelBench  `json:"benchmarks"`
}

// JSON renders the report for BENCH_kernels.json.
func (r *KernelReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable table dockbench prints.
func (r *KernelReport) String() string {
	var sb strings.Builder
	sb.WriteString("KERNEL BENCHMARKS (radial tables vs analytic)\n")
	fmt.Fprintf(&sb, "workload: %s, GOMAXPROCS=%d, NumCPU=%d\n", r.Workload, r.GoMaxProcs, r.NumCPU)
	if r.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", r.Note)
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(&sb, "workload %-10s %s (%d atoms) vs %s (%d atoms, %d AD4 types, %d torsions): exact tables vina %.1f KiB / ad4 %.1f KiB, fast banks vina %.1f KiB / ad4 %.1f KiB\n",
			w.Name+":", w.Receptor, w.ReceptorAtoms, w.Ligand, w.LigandAtoms, w.AD4TypeCount, w.Torsions,
			float64(w.VinaExactTableBytes)/1024, float64(w.AD4ExactTableBytes)/1024,
			float64(w.VinaFastTableBytes)/1024, float64(w.AD4FastTableBytes)/1024)
	}
	fmt.Fprintf(&sb, "%-34s %-9s %14s %10s %8s %12s %12s %9s %8s %8s %10s %12s\n",
		"kernel", "workload", "ns/op", "allocs/op", "speedup", "ns/pose", "med/pose", "vs 1-pose", "vs batch", "±rsd", "max|ΔE|", "bound slack")
	for _, b := range r.Benchmarks {
		sp := ""
		if b.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", b.Speedup)
		}
		np, md, vp, vb := "", "", "", ""
		if b.NsPerPose > 0 {
			np = fmt.Sprintf("%.0f", b.NsPerPose)
		}
		if b.MedianNsPerPose > 0 {
			md = fmt.Sprintf("%.0f", b.MedianNsPerPose)
		}
		if b.SpeedupVsPerPose > 0 {
			vp = fmt.Sprintf("%.2fx", b.SpeedupVsPerPose)
		}
		if b.SpeedupVsBatch > 0 {
			vb = fmt.Sprintf("%.2fx", b.SpeedupVsBatch)
		}
		rsd, de := "", ""
		if b.RelStdDev > 0 {
			rsd = fmt.Sprintf("%.1f%%", b.RelStdDev*100)
		}
		ex := ""
		if b.Precision == "tolerance" {
			de = fmt.Sprintf("%.2g", b.MaxAbsDeltaE)
			ex = fmt.Sprintf("%.2g", -b.MaxBoundExcess)
		}
		fmt.Fprintf(&sb, "%-34s %-9s %14.0f %10.1f %8s %12s %12s %9s %8s %8s %10s %12s\n",
			b.Name, b.Workload, b.NsPerOp, b.AllocsPerOp, sp, np, md, vp, vb, rsd, de, ex)
	}
	return sb.String()
}

// measure times fn over several batches of iters runs, reporting the
// fastest batch's mean ns/op (the minimum of batch means discards
// scheduler and frequency noise, which only ever slows a batch down)
// and the mean heap allocations per op (mallocs counted via
// runtime.MemStats, the same counter testing's AllocsPerRun reads).
func measure(iters int, fn func()) (nsPerOp, allocsPerOp float64) {
	const batches = 4
	fn() // warm up: build tables, fault in pages
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	runtime.ReadMemStats(&after)
	return best, float64(after.Mallocs-before.Mallocs) / float64(batches*iters)
}

// kernelPoseSet builds a deterministic spread of ligand poses for the
// scoring benchmarks (seeded; no global rand, matching the determinism
// rules of the docking packages).
func kernelPoseSet(lig *dock.Ligand, n int, seed int64) []dock.Pose {
	r := rand.New(rand.NewSource(seed))
	poses := make([]dock.Pose, n)
	for i := range poses {
		tors := make([]float64, lig.NumTorsions())
		for t := range tors {
			tors[t] = (r.Float64() - 0.5) * 2 * math.Pi
		}
		poses[i] = dock.Pose{
			Translation: chem.V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5),
			Orientation: chem.RandomQuat(r.Float64(), r.Float64(), r.Float64()),
			Torsions:    tors,
		}
	}
	return poses
}

// kernelScreenWindows builds the batch sweep's pose population shaped
// like a local search's candidates: runs of Solis-Wets perturbations
// of one incumbent (lga.go: rho·0.5 Å translation, rho·0.15 rad
// angles, rho annealed from 1 toward 0.01) — so the population is
// consecutive `window`-pose clusters, each a fresh random incumbent
// followed by candidates at a decaying rho schedule. The spatial
// correlation inside a window is part of the workload the scorers'
// table and lattice caches see when scoring a search's candidates; a
// uniform-wild population is the cold-start case, not the steady
// state.
func kernelScreenWindows(lig *dock.Ligand, n, window int, seed int64) []dock.Pose {
	r := rand.New(rand.NewSource(seed))
	wild := kernelPoseSet(lig, (n+window-1)/window, seed+1)
	poses := make([]dock.Pose, 0, n)
	for _, inc := range wild {
		if len(poses) >= n {
			break
		}
		poses = append(poses, inc)
		rho := 1.0
		for k := 1; k < window && len(poses) < n; k++ {
			cand := dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
			dock.PerturbInto(r, &cand, inc, rho*0.5, rho*0.15)
			poses = append(poses, cand)
			rho *= 0.85
		}
	}
	return poses
}

// kernelSteadyWindows builds the window-cell population: consecutive
// `window`-pose clusters, each one random incumbent plus candidates
// perturbed at one FIXED rho — the steady-state shape of the windowed
// Solis-Wets refinement, which spends almost all its iterations at
// small annealed rho (rho halves after every 4 rejections, so the
// rho≈1 opening lasts single-digit iterations out of hundreds). The
// decaying-rho population above mixes the wild opening into every
// cluster and so carries multi-Å displacement bounds; this one pins
// the bound to the regime the incumbent-anchored gather actually
// serves, and its cells carry their own per-pose and plain-batch
// baselines over the same poses so the window ratios are
// like-for-like.
func kernelSteadyWindows(lig *dock.Ligand, n, window int, rho float64, seed int64) []dock.Pose {
	r := rand.New(rand.NewSource(seed))
	wild := kernelPoseSet(lig, (n+window-1)/window, seed+1)
	poses := make([]dock.Pose, 0, n)
	for _, inc := range wild {
		if len(poses) >= n {
			break
		}
		poses = append(poses, inc)
		for k := 1; k < window && len(poses) < n; k++ {
			cand := dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
			dock.PerturbInto(r, &cand, inc, rho*0.5, rho*0.15)
			poses = append(poses, cand)
		}
	}
	return poses
}

// kernelWindowBounds computes, for each `window`-pose cluster of the
// population, the actual max atom displacement of any cluster pose
// from the cluster's incumbent (its first pose) — the displacement
// bound handed to Batch.SetWindowBound by the window cells. Using the
// measured displacement (plus ε for float slack) rather than a
// parametric bound means every pose passes the batch's WindowValid
// audit by construction, so the cells time the shared-gather fast
// path itself; the per-pose fallback is exercised by the engines'
// bound-violation tests, not here.
func kernelWindowBounds(lig *dock.Ligand, poses []dock.Pose, window int) []float64 {
	bounds := make([]float64, 0, (len(poses)+window-1)/window)
	for base := 0; base < len(poses); base += window {
		end := base + window
		if end > len(poses) {
			end = len(poses)
		}
		anchor := lig.Coords(poses[base])
		d2max := 0.0
		for i := base + 1; i < end; i++ {
			c := lig.Coords(poses[i])
			for k := range c {
				if d2 := c[k].Dist2(anchor[k]); d2 > d2max {
					d2max = d2
				}
			}
		}
		bounds = append(bounds, math.Sqrt(d2max)+1e-9)
	}
	return bounds
}

// kernelPoses is kernelPoseSet materialized to coordinates, for the
// per-call scoring rows.
func kernelPoses(lig *dock.Ligand, n int, seed int64) [][]chem.Vec3 {
	poses := kernelPoseSet(lig, n, seed)
	coords := make([][]chem.Vec3, n)
	for i, p := range poses {
		coords[i] = lig.Coords(p)
	}
	return coords
}

// kernelWorkload is one prepared receptor/ligand pair of the kernel
// matrix with both engines' scorers built over it.
type kernelWorkload struct {
	name   string
	prec   *chem.Molecule
	lig    *dock.Ligand
	vs     *vina.Scorer
	as     *ad4.Scorer
	meta   WorkloadMeta
	nPop   int
	rounds int
}

// newKernelWorkload runs the production preparation pipeline on a
// generated pair and builds the Vina scorer, the AD4 grid maps and the
// AD4 scorer, recording the workload's shape metadata.
func newKernelWorkload(name string, rec, rawLig *chem.Molecule, recCode, ligCode string,
	npts int, nPop, rounds int) (*kernelWorkload, error) {
	prec, err := prep.PrepareReceptor(rec)
	if err != nil {
		return nil, err
	}
	mol2, err := prep.ConvertSDFToMol2(rawLig)
	if err != nil {
		return nil, err
	}
	pl, err := prep.PrepareLigand(mol2)
	if err != nil {
		return nil, err
	}
	lig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		return nil, err
	}
	vs, err := vina.NewScorer(prec, lig)
	if err != nil {
		return nil, err
	}
	spec := grid.Spec{Center: chem.Vec3{}, NPts: [3]int{npts, npts, npts}, Spacing: 1.0}
	maps, err := grid.Generate(prec, spec, pl.Mol.AtomTypes())
	if err != nil {
		return nil, err
	}
	as, err := ad4.NewScorer(maps, lig)
	if err != nil {
		return nil, err
	}
	return &kernelWorkload{
		name: name, prec: prec, lig: lig, vs: vs, as: as,
		nPop: nPop, rounds: rounds,
		meta: WorkloadMeta{
			Name:                name,
			Receptor:            recCode,
			ReceptorAtoms:       prec.NumAtoms(),
			Ligand:              ligCode,
			LigandAtoms:         pl.Mol.NumAtoms(),
			AD4TypeCount:        len(pl.Mol.AtomTypes()),
			Torsions:            pl.Tree.NumTorsions(),
			GridNPts:            npts,
			VinaExactTableBytes: vs.ExactWorkingSetBytes(),
			VinaFastTableBytes:  vs.FastWorkingSetBytes(),
			AD4ExactTableBytes:  as.ExactWorkingSetBytes(),
			AD4FastTableBytes:   as.FastWorkingSetBytes(),
		},
	}, nil
}

// Kernels measures every docking kernel on the reference workload
// (receptor 2HHN vs ligand 0E6) and the batched-scoring sweep
// additionally on the L2-overflow workload (receptor 9XLR vs ligand
// XL1). Quick mode shrinks the lattices and iteration counts for
// smoke runs.
func (s *Suite) Kernels() (*KernelReport, error) {
	npts, gridIters, scoreIters := 24, 8, 20000
	nPop, rounds := 600, 60
	largeNpts, largeNPop, largeRounds := 44, 300, 24
	if s.Quick {
		npts, gridIters, scoreIters = 12, 2, 500
		nPop, rounds = 120, 4
		largeNpts, largeNPop, largeRounds = 16, 100, 3
	}

	recMol, _ := data.GenerateReceptor("2HHN")
	rawLig, _ := data.GenerateLigand("0E6")
	ref, err := newKernelWorkload("reference", recMol, rawLig, "2HHN", "0E6", npts, nPop, rounds)
	if err != nil {
		return nil, err
	}
	largeRec, _ := data.GenerateLargeReceptor()
	largeLig, _ := data.GenerateLargeLigand()
	large, err := newKernelWorkload("large", largeRec, largeLig,
		data.LargeReceptorCode, data.LargeLigandCode, largeNpts, largeNPop, largeRounds)
	if err != nil {
		return nil, err
	}

	spec := grid.Spec{Center: chem.Vec3{}, NPts: [3]int{npts, npts, npts}, Spacing: 1.0}
	probeTypes := []chem.AtomType{chem.TypeC, chem.TypeN, chem.TypeOA, chem.TypeHD}

	rep := &KernelReport{
		Workload: fmt.Sprintf("reference 2HHN/0E6 (%d³ grid) + large %s/%s (%d³ grid) @ %.2f Å",
			npts, data.LargeReceptorCode, data.LargeLigandCode, largeNpts, spec.Spacing),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workloads:  []WorkloadMeta{ref.meta, large.meta},
	}
	add := func(name string, baselineNs float64, iters int, fn func() error) (float64, error) {
		var innerErr error
		ns, allocs := measure(iters, func() {
			if err := fn(); err != nil {
				innerErr = err
			}
		})
		if innerErr != nil {
			return 0, fmt.Errorf("experiments: kernel %s: %w", name, innerErr)
		}
		b := KernelBench{Name: name, Workload: "reference", NsPerOp: ns, AllocsPerOp: allocs}
		if baselineNs > 0 {
			b.Speedup = baselineNs / ns
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		return ns, nil
	}

	// AutoGrid map generation: analytic reference, table-backed serial,
	// table-backed with the full worker pool. Reference workload only —
	// map generation cost scales with lattice volume, not ligand
	// complexity, so one workload pins it.
	refNs, err := add("grid_generate_reference", 0, gridIters, func() error {
		_, err := grid.GenerateReference(ref.prec, spec, probeTypes)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := add("grid_generate_tables_1w", refNs, gridIters, func() error {
		_, err := grid.GenerateWorkers(ref.prec, spec, probeTypes, 1)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := add("grid_generate_tables_allcores", refNs, gridIters, func() error {
		_, err := grid.GenerateWorkers(ref.prec, spec, probeTypes, 0)
		return err
	}); err != nil {
		return nil, err
	}

	// Single-pose scoring, analytic vs table-backed (reference workload).
	poses := kernelPoses(ref.lig, 16, 3)
	i := 0
	vinaRefNs, err := add("vina_score_analytic", 0, scoreIters, func() error {
		ref.vs.ScoreAnalytic(poses[i%len(poses)])
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	i = 0
	if _, err := add("vina_score_tables", vinaRefNs, scoreIters, func() error {
		ref.vs.Score(poses[i%len(poses)])
		i++
		return nil
	}); err != nil {
		return nil, err
	}
	i = 0
	ad4RefNs, err := add("ad4_score_analytic", 0, scoreIters, func() error {
		ref.as.ScoreAnalytic(poses[i%len(poses)])
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	i = 0
	if _, err := add("ad4_score_tables", ad4RefNs, scoreIters, func() error {
		ref.as.Score(poses[i%len(poses)])
		i++
		return nil
	}); err != nil {
		return nil, err
	}

	// Batched-scoring sweep: one fixed production-shaped population per
	// engine per workload — Solis-Wets screen windows, see
	// kernelScreenWindows — scored per pose (Workspace materialization
	// included, as a search loop pays it), in exact ScoreBatch chunks,
	// in tolerance ScoreBatchFast chunks, and (at the window-aligned
	// batch size) through the incumbent-anchored shared gather. The
	// cells are interleaved round-robin so frequency drift hits every
	// cell alike; ns_per_pose and the batch-vs-per-pose ratio are the
	// signal. The exact cells produce bit-identical energies (pinned by
	// the engines' 0-ULP batch tests, which also cover the window
	// cells); the tolerance cells report the max |fast − exact| over
	// the population (measured outside the timed region) next to their
	// timing, so the speed/accuracy trade is in one row. Each cell also
	// carries the relative stddev and median of its per-round wall
	// times — the noise floor for reading the ratios.
	const windowSize = 50
	// steadyRho is the fixed perturbation scale of the window-cell
	// population: deep enough into the Solis-Wets anneal that cluster
	// displacement bounds sit at ~1 Å (reference) to ~2 Å (large), the
	// regime the shared gather's inflated cutoff stays profitable in.
	const steadyRho = 0.15
	sweep := func(wl *kernelWorkload, prefix string, score func([]chem.Vec3) float64,
		scoreBatch, scoreBatchFast func(*dock.Batch, []float64), margin func(float64) float64) {
		lig := wl.lig
		batchPoses := kernelScreenWindows(lig, wl.nPop, windowSize, 7)
		winPoses := kernelSteadyWindows(lig, wl.nPop, windowSize, steadyRho, 13)
		winBounds := kernelWindowBounds(lig, winPoses, windowSize)
		batchSizes := []int{1, 8, 16, windowSize, 150}
		ws := dock.NewWorkspace(lig)
		type cell struct {
			name      string
			bs        int
			precision string
			window    bool
			baseline  int // index of this cell's per-pose baseline cell
			vsBatch   int // window cells: index of the matching plain cell; else -1
			run       func()
		}
		sink := 0.0
		perPoseCell := func(name string, poses []dock.Pose) cell {
			return cell{name, 0, "exact", false, 0, -1, func() {
				for _, p := range poses {
					sink += score(ws.Coords(p))
				}
			}}
		}
		batchCell := func(name string, poses []dock.Pose, bs int, precision string,
			kernel func(*dock.Batch, []float64)) cell {
			b := dock.NewBatch(lig, bs)
			out := make([]float64, bs)
			return cell{name, bs, precision, false, 0, -1, func() {
				for base := 0; base < len(poses); base += bs {
					end := base + bs
					if end > len(poses) {
						end = len(poses)
					}
					b.Reset()
					for i := base; i < end; i++ {
						b.Append(poses[i])
					}
					kernel(b, out[:end-base])
					for k := 0; k < end-base; k++ {
						sink += out[k]
					}
				}
			}}
		}
		// Window cells: same poses and flush size as the _winpop plain
		// batch cells, but each cluster is scored through one
		// incumbent-anchored gather (anchor = the cluster's first pose,
		// bound = the cluster's measured max displacement).
		windowCell := func(name string, precision string, kernel func(*dock.Batch, []float64)) cell {
			b := dock.NewBatch(lig, windowSize)
			out := make([]float64, windowSize)
			return cell{name, windowSize, precision, true, 0, -1, func() {
				for base := 0; base < len(winPoses); base += windowSize {
					end := base + windowSize
					if end > len(winPoses) {
						end = len(winPoses)
					}
					b.SetWindow(winPoses[base])
					b.SetWindowBound(winBounds[base/windowSize])
					b.Reset()
					for i := base; i < end; i++ {
						b.Append(winPoses[i])
					}
					kernel(b, out[:end-base])
					for k := 0; k < end-base; k++ {
						sink += out[k]
					}
				}
				b.ClearWindow()
			}}
		}
		cells := []cell{perPoseCell(prefix+"_score_per_pose", batchPoses)}
		for _, bs := range batchSizes {
			cells = append(cells, batchCell(fmt.Sprintf("%s_score_batch%d", prefix, bs),
				batchPoses, bs, "exact", scoreBatch))
		}
		for _, bs := range batchSizes {
			cells = append(cells, batchCell(fmt.Sprintf("%s_score_fast_batch%d", prefix, bs),
				batchPoses, bs, "tolerance", scoreBatchFast))
		}
		winBase := len(cells)
		cells = append(cells, perPoseCell(prefix+"_score_per_pose_winpop", winPoses))
		cells = append(cells,
			batchCell(fmt.Sprintf("%s_score_batch%d_winpop", prefix, windowSize),
				winPoses, windowSize, "exact", scoreBatch),
			batchCell(fmt.Sprintf("%s_score_fast_batch%d_winpop", prefix, windowSize),
				winPoses, windowSize, "tolerance", scoreBatchFast))
		cells = append(cells,
			windowCell(fmt.Sprintf("%s_score_batch%d_window", prefix, windowSize), "exact", scoreBatch),
			windowCell(fmt.Sprintf("%s_score_fast_batch%d_window", prefix, windowSize), "tolerance", scoreBatchFast))
		for ci := winBase; ci < len(cells); ci++ {
			cells[ci].baseline = winBase
		}
		cells[winBase+3].vsBatch = winBase + 1
		cells[winBase+4].vsBatch = winBase + 2
		for _, c := range cells {
			c.run() // warm up: fault in tables, batch buffers, lazy fast state
		}
		tot := make([]time.Duration, len(cells))
		sum2 := make([]float64, len(cells)) // Σ(round ns)² for the stddev
		minNs := make([]float64, len(cells))
		roundNs := make([][]float64, len(cells))
		for round := 0; round < wl.rounds; round++ {
			for ci, c := range cells {
				t0 := time.Now()
				c.run()
				d := time.Since(t0)
				tot[ci] += d
				sum2[ci] += float64(d.Nanoseconds()) * float64(d.Nanoseconds())
				ns := float64(d.Nanoseconds())
				roundNs[ci] = append(roundNs[ci], ns)
				if minNs[ci] == 0 || ns < minNs[ci] {
					minNs[ci] = ns
				}
			}
		}
		// Accuracy metadata, outside the timed region: the fast path is
		// batch-size-invariant (pinned by the engines' batch-invariance
		// tests), so one full-population pass gives every tolerance
		// cell's max |ΔE|.
		maxDeltaE, maxExcess := 0.0, math.Inf(-1)
		for _, pop := range [][]dock.Pose{batchPoses, winPoses} {
			b := dock.NewBatch(lig, len(pop))
			b.Reset()
			for _, p := range pop {
				b.Append(p)
			}
			fast := make([]float64, len(pop))
			scoreBatchFast(b, fast)
			for i, p := range pop {
				exact := score(ws.Coords(p))
				d := math.Abs(fast[i] - exact)
				if d > maxDeltaE {
					maxDeltaE = d
				}
				if ex := d - margin(exact); ex > maxExcess {
					maxExcess = ex
				}
			}
		}
		// Each cell reports its FASTEST round, like measure() above:
		// scheduler preemption and host frequency dips only ever slow a
		// round down, so on a noisy shared core the minimum is the
		// workload's time and the mean is the noise's. The median round
		// and the mean-based rel_stddev ride along so the observed
		// noise is in the report.
		median := func(xs []float64) float64 {
			ys := append([]float64(nil), xs...)
			sort.Float64s(ys)
			n := len(ys)
			if n == 0 {
				return 0
			}
			if n%2 == 1 {
				return ys[n/2]
			}
			return (ys[n/2-1] + ys[n/2]) / 2
		}
		for ci, c := range cells {
			ns := minNs[ci] / float64(wl.nPop)
			mean := float64(tot[ci].Nanoseconds()) / float64(wl.rounds)
			variance := sum2[ci]/float64(wl.rounds) - mean*mean
			kb := KernelBench{
				Name:            c.name,
				Workload:        wl.name,
				NsPerOp:         minNs[ci],
				NsPerPose:       ns,
				MedianNsPerPose: median(roundNs[ci]) / float64(wl.nPop),
				Precision:       c.precision,
			}
			if variance > 0 {
				kb.RelStdDev = math.Sqrt(variance) / mean
			}
			if c.bs > 0 {
				kb.BatchSize = c.bs
				kb.SpeedupVsPerPose = minNs[c.baseline] / minNs[ci]
			}
			if c.vsBatch >= 0 {
				kb.SpeedupVsBatch = minNs[c.vsBatch] / minNs[ci]
			}
			if c.precision == "tolerance" {
				kb.MaxAbsDeltaE = maxDeltaE
				kb.MaxBoundExcess = maxExcess
			}
			rep.Benchmarks = append(rep.Benchmarks, kb)
		}
		_ = sink
	}
	for _, wl := range []*kernelWorkload{ref, large} {
		prefix := ""
		if wl.name != "reference" {
			prefix = wl.name + "_"
		}
		sweep(wl, prefix+"vina", wl.vs.Score, wl.vs.ScoreBatch, wl.vs.ScoreBatchFast, vina.FastMargin)
		sweep(wl, prefix+"ad4", wl.as.Score, wl.as.ScoreBatch, wl.as.ScoreBatchFast, ad4.FastMargin)
	}
	rep.Note = "measured on a 1-CPU reference container; absolute ns and run-to-run ratios carry ±20% frequency noise — the interleaved batch-sweep cells share one fixed population per workload, so only their within-report ratios are meaningful; each sweep cell reports its fastest round (noise only slows a round down) with median_ns_per_pose and rel_stddev as the observed per-round noise; the tolerance (score_fast) cells report the max |fast−exact| energy over the population (raw delta, dominated by the relative tolerance term on r⁻¹² clash poses) and the narrowest margin to the pinned FastAbsTol/FastRelTol envelope (bound slack > 0 means no pose violated it); the *_winpop and *_window cells share a second population of fixed-rho steady-state Solis-Wets windows (see kernelSteadyWindows) with their own per-pose baseline, the *_window cells scoring each 50-pose cluster through one incumbent-anchored gather (speedup_vs_batch is that win over the plain batch cell on the same poses); workload 'large' is the L2-overflow pair — its exact radial-table working set exceeds typical per-core L2, the regime the float32 fast banks and the window gather target"
	return rep, nil
}

// KernelsText is the ByName-facing wrapper returning the formatted
// table.
func (s *Suite) KernelsText() (string, error) {
	rep, err := s.Kernels()
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}
