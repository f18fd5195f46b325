package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/prep"
)

// Kernel cells score one population shaped like the windows the
// searches flush: consecutive windowSize-pose clusters, each a random
// incumbent plus perturbations at one fixed Solis-Wets scale. steadyRho
// is deep enough into the anneal that the incumbent-anchored gather's
// inflated cutoff stays profitable, which is the regime the refinement
// loops spend nearly all their iterations in.
const (
	windowSize = 50
	steadyRho  = 0.15
)

// steadyWindows builds the kernel-cell population from the seed alone.
func steadyWindows(lig *dock.Ligand, n int, seed int64) []dock.Pose {
	r := rand.New(rand.NewSource(seed))
	poses := make([]dock.Pose, 0, n)
	for len(poses) < n {
		inc := dock.Pose{
			Translation: chem.V(r.Float64()*10-5, r.Float64()*10-5, r.Float64()*10-5),
			Orientation: chem.RandomQuat(r.Float64(), r.Float64(), r.Float64()),
			Torsions:    make([]float64, lig.NumTorsions()),
		}
		for t := range inc.Torsions {
			inc.Torsions[t] = (r.Float64() - 0.5) * 2 * math.Pi
		}
		poses = append(poses, inc)
		for k := 1; k < windowSize && len(poses) < n; k++ {
			cand := dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
			dock.PerturbInto(r, &cand, inc, steadyRho*0.5, steadyRho*0.15)
			poses = append(poses, cand)
		}
	}
	return poses
}

// windowBounds is each cluster's measured max atom displacement from
// its incumbent, so every pose passes the batch's window audit and the
// window cells time the shared-gather path, not its fallback.
func windowBounds(lig *dock.Ligand, poses []dock.Pose) []float64 {
	var bounds []float64
	for base := 0; base < len(poses); base += windowSize {
		anchor := lig.Coords(poses[base])
		d2max := 0.0
		for i := base + 1; i < min(base+windowSize, len(poses)); i++ {
			for k, c := range lig.Coords(poses[i]) {
				d2max = math.Max(d2max, c.Dist2(anchor[k]))
			}
		}
		bounds = append(bounds, math.Sqrt(d2max)+1e-9)
	}
	return bounds
}

// medianOf times fn rounds times and returns the median duration in
// nanoseconds.
func medianOf(rounds int, fn func()) float64 {
	xs := make([]float64, rounds)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

// batchScorer is the part of both engines' scorers the kernel cells
// drive.
type batchScorer interface {
	Score(coords []chem.Vec3) float64
	ScoreBatch(b *dock.Batch, out []float64)
	ScoreBatchFast(b *dock.Batch, out []float64)
}

var sink float64 // keeps the kernel cells' results live

// kernelCells times the five scoring routes of one engine over the
// population, interleaved round-robin so drift hits every cell alike,
// and records ns per pose.
func kernelCells(rep *report, prefix string, s batchScorer, lig *dock.Ligand, poses []dock.Pose, rounds int) {
	bounds := windowBounds(lig, poses)
	ws := dock.NewWorkspace(lig)
	b := dock.NewBatch(lig, windowSize)
	out := make([]float64, windowSize)
	batched := func(kernel func(*dock.Batch, []float64), window bool) func() {
		return func() {
			for base := 0; base < len(poses); base += windowSize {
				end := min(base+windowSize, len(poses))
				if window {
					b.SetWindow(poses[base])
					b.SetWindowBound(bounds[base/windowSize])
				}
				b.Reset()
				for _, p := range poses[base:end] {
					b.Append(p)
				}
				kernel(b, out[:end-base])
				sink += out[0]
			}
			b.ClearWindow()
		}
	}
	cells := []struct {
		name string
		run  func()
	}{
		{"score_ns_per_pose", func() {
			for _, p := range poses {
				sink += s.Score(ws.Coords(p))
			}
		}},
		{"scorebatch_ns_per_pose", batched(s.ScoreBatch, false)},
		{"scorebatchfast_ns_per_pose", batched(s.ScoreBatchFast, false)},
		{"window_ns_per_pose", batched(s.ScoreBatch, true)},
		{"windowfast_ns_per_pose", batched(s.ScoreBatchFast, true)},
	}
	times := make([][]float64, len(cells))
	for round := -1; round < rounds; round++ { // round -1 warms tables and buffers
		for ci, c := range cells {
			t0 := time.Now()
			c.run()
			if round >= 0 {
				times[ci] = append(times[ci], float64(time.Since(t0).Nanoseconds())/float64(len(poses)))
			}
		}
	}
	for ci, c := range cells {
		rep.dist(prefix+"."+c.name, times[ci])
	}
	rep.set(prefix+".batch_gain_kernel", rep.values[prefix+".score_ns_per_pose"]/rep.values[prefix+".scorebatch_ns_per_pose"])
}

// probePair measures every pair-side layer metric on one pair: the
// chem, formats, prep, grid and scorer calls on their own, the kernel
// cells, and whole searches under each engine option the Amdahl
// columns compare.
func probePair(rep *report, in pairInputs, seed int64, sc scale) error {
	e := in.def.Effort
	ms := func(ns float64) float64 { return ns / 1e6 }
	var p *prepared
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	rep.set("prep.receptor_ms", ms(medianOf(sc.rounds, func() {
		_, e := prep.PrepareReceptor(in.rec)
		fail(e)
	})))
	if p, err = in.prepare(); err != nil {
		return err
	}
	rep.set("prep.ligand_ms", ms(medianOf(sc.rounds, func() { fail(p.prepareLigand(in)) })))

	types := p.pl.Mol.AtomTypes()
	rep.set("grid.generate_ms", ms(medianOf(sc.rounds, func() {
		p.maps, err = grid.Generate(p.rec, p.spec, types)
	})))
	if err != nil {
		return err
	}
	rep.set("grid.generate_1w_ms", ms(medianOf(sc.rounds, func() {
		_, e := grid.GenerateWorkers(p.rec, p.spec, types, 1)
		fail(e)
	})))
	// One affinity lattice per ligand type plus the electrostatic and
	// desolvation lattices, float64 each: computed, not measured.
	values := float64(p.spec.NumPoints() * (len(p.maps.Types()) + 2))
	rep.set("grid.map_bytes", values*8)
	rep.set("grid.points_per_s", values/(rep.values["grid.generate_ms"]/1e3))

	var recPDBQT, ligPDBQT bytes.Buffer
	rep.set("formats.write_receptor_pdbqt_ms", ms(medianOf(sc.rounds, func() {
		recPDBQT.Reset()
		fail(formats.WritePDBQTReceptor(&recPDBQT, p.rec))
	})))
	fail(formats.WritePDBQTLigand(&ligPDBQT, p.pl.Mol, p.pl.Tree))
	rep.set("formats.parse_pdbqt_ms", ms(medianOf(sc.rounds, func() {
		_, e := formats.ParsePDBQT(bytes.NewReader(ligPDBQT.Bytes()), in.def.Ligand)
		fail(e)
	})))
	if err != nil {
		return err
	}

	vs, as, err := p.scorers()
	if err != nil {
		return err
	}
	rep.set("vina.scorer_warm_ms", ms(medianOf(sc.rounds, func() { _, e := vina.NewScorer(p.rec, p.lig); fail(e) })))
	rep.set("ad4.scorer_warm_ms", ms(medianOf(sc.rounds, func() { _, e := ad4.NewScorer(p.maps, p.lig); fail(e) })))

	poses := steadyWindows(p.lig, sc.population, seed)
	ws := dock.NewWorkspace(p.lig)
	rep.set("chem.kinematics_ns_per_pose", medianOf(sc.rounds, func() {
		for _, pose := range poses {
			sink += ws.Coords(pose)[0].X
		}
	})/float64(len(poses)))
	kb := dock.NewBatch(p.lig, windowSize)
	rep.set("chem.kinematics_batch_ns_per_pose", medianOf(sc.rounds, func() {
		for base := 0; base < len(poses); base += windowSize {
			kb.Reset()
			for _, pose := range poses[base:min(base+windowSize, len(poses))] {
				kb.Append(pose)
			}
			xs, _, _ := kb.SoA()
			sink += xs[0]
		}
	})/float64(len(poses)))
	kernelCells(rep, "vina", vs, p.lig, poses, sc.rounds)
	kernelCells(rep, "ad4", as, p.lig, poses, sc.rounds)

	// Whole searches on prebuilt scorers, one option changed at a time.
	r := rand.New(rand.NewSource(seed))
	var dlgDoc *formats.DLG
	type variant struct {
		name             string
		precision        dock.Precision
		maxBatch, worker int
	}
	variants := []variant{
		{"search_default_ms", dock.PrecisionExact, 0, 0},
		{"search_perpose_ms", dock.PrecisionExact, -1, 0},
		{"search_tol_ms", dock.PrecisionTolerance, 0, 0},
		{"search_1w_ms", dock.PrecisionExact, 0, 1},
	}
	times := map[string][]float64{}
	for i := 0; i < sc.searchSeeds; i++ {
		searchSeed := r.Int63()
		for _, v := range variants {
			ve := p.vinaEngine(e, searchSeed)
			ve.Precision, ve.MaxBatch, ve.Workers = v.precision, v.maxBatch, v.worker
			t0 := time.Now()
			res, err := ve.Dock(vs, p.lig)
			times["vina."+v.name] = append(times["vina."+v.name], ms(float64(time.Since(t0).Nanoseconds())))
			if err != nil {
				return err
			}
			ae := p.ad4Engine(e, searchSeed)
			ae.Precision, ae.MaxBatch, ae.Workers = v.precision, v.maxBatch, v.worker
			t0 = time.Now()
			_, err = ae.Dock(as, p.lig)
			times["ad4."+v.name] = append(times["ad4."+v.name], ms(float64(time.Since(t0).Nanoseconds())))
			if err != nil {
				return err
			}
			if dlgDoc == nil {
				if dlgDoc, err = res.ToDLGWithClusters(p.lig, 2.0); err != nil {
					return err
				}
			}
		}
	}
	for name, xs := range times {
		rep.dist(name, xs)
	}
	for _, eng := range []string{"vina", "ad4"} {
		def := rep.values[eng+".search_default_ms"]
		rep.set(eng+".batch_gain_e2e", rep.values[eng+".search_perpose_ms"]/def)
		rep.set(eng+".tol_gain_e2e", def/rep.values[eng+".search_tol_ms"])
		rep.set("parallel.fanout_gain_"+eng, rep.values[eng+".search_1w_ms"]/def)
	}
	rep.set("parallel.pool_cap", float64(parallel.Tokens().Cap()))

	var dlg bytes.Buffer
	rep.set("formats.write_dlg_ms", ms(medianOf(sc.rounds, func() {
		dlg.Reset()
		fail(formats.WriteDLG(&dlg, dlgDoc))
	})))
	return err
}
