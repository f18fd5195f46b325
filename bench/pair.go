package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// pairDef names one receptor-ligand pair and the search effort it is
// docked at.
type pairDef struct {
	Receptor, Ligand string
	Effort           core.Effort
}

// pairInputs are the generated (unprepared) molecules of a pair — the
// only thing the program under test receives.
type pairInputs struct {
	def    pairDef
	rec    *chem.Molecule
	rawLig *chem.Molecule
}

func generatePair(def pairDef) pairInputs {
	in := pairInputs{def: def}
	if def.Receptor == data.LargeReceptorCode {
		in.rec, _ = data.GenerateLargeReceptor()
	} else {
		in.rec, _ = data.GenerateReceptor(def.Receptor)
	}
	if def.Ligand == data.LargeLigandCode {
		in.rawLig, _ = data.GenerateLargeLigand()
	} else {
		in.rawLig, _ = data.GenerateLigand(def.Ligand)
	}
	return in
}

// prepared is a pair after the preparation and grid stages.
type prepared struct {
	rec  *chem.Molecule
	pl   *prep.PreparedLigand
	lig  *dock.Ligand
	spec grid.Spec
	box  dock.Box
	maps *grid.Maps
}

func (in pairInputs) prepare() (*prepared, error) {
	rec, err := prep.PrepareReceptor(in.rec)
	if err != nil {
		return nil, fmt.Errorf("prepare receptor %s: %w", in.def.Receptor, err)
	}
	p := &prepared{rec: rec}
	if err := p.prepareLigand(in); err != nil {
		return nil, err
	}
	p.layout(in.def.Effort)
	return p, nil
}

func (p *prepared) prepareLigand(in pairInputs) error {
	mol2, err := prep.ConvertSDFToMol2(in.rawLig)
	if err != nil {
		return fmt.Errorf("convert ligand %s: %w", in.def.Ligand, err)
	}
	if p.pl, err = prep.PrepareLigand(mol2); err != nil {
		return fmt.Errorf("prepare ligand %s: %w", in.def.Ligand, err)
	}
	if p.lig, err = dock.NewLigand(p.pl.Mol, p.pl.Tree); err != nil {
		return fmt.Errorf("ligand model %s: %w", in.def.Ligand, err)
	}
	return nil
}

// layout centres the lattice and the search box on the receptor, as
// the workflow's grid-parameter activity does.
func (p *prepared) layout(e core.Effort) {
	lo, hi := chem.BoundingBox(p.rec.Positions())
	p.spec = grid.Spec{Center: lo.Lerp(hi, 0.5), NPts: [3]int{e.GridNPts, e.GridNPts, e.GridNPts}, Spacing: e.GridSpacing}
	side := float64(e.GridNPts-1) * e.GridSpacing
	p.box = dock.Box{Center: p.spec.Center, Size: chem.V(side, side, side)}
}

func (p *prepared) vinaEngine(e core.Effort, seed int64) *vina.Engine {
	return &vina.Engine{
		Config: prep.VinaConfig{
			Center: p.box.Center, Size: p.box.Size,
			Exhaustiveness: e.VinaExhaustiveness, NumModes: e.VinaModes, Seed: seed,
		},
		StepsPerRestart: e.VinaSteps,
	}
}

func (p *prepared) ad4Engine(e core.Effort, seed int64) *ad4.Engine {
	params := prep.DefaultDPF(p.lig.Mol.Name, p.rec.Name, seed)
	params.Runs, params.PopSize, params.Gens, params.Evals = e.AD4Runs, e.AD4PopSize, e.AD4Gens, e.AD4Evals
	return &ad4.Engine{Params: params, Box: p.box}
}

// pairSample is what one seed's pipeline measured, in milliseconds.
type pairSample struct {
	total, prep, grid, dlg float64
	// scorer build and search per engine and precision: [vina|ad4][exact|tolerance].
	scorer, search [2][2]float64
	checksum       string
}

// pipeline is the per-seed pipeline of ISSUE's pair_pipeline_ms: the
// stages a user who docks one pair with both engines pays, without the
// tolerance re-docks that only the benchmark adds.
func (s pairSample) pipeline() float64 {
	return s.prep + s.grid + s.dlg + s.scorer[0][0] + s.search[0][0] + s.scorer[1][0] + s.search[1][0]
}

// dockCall is one engine configuration's scorer build plus Dock.
func (s pairSample) dockCall(engine, precision int) float64 {
	return s.scorer[engine][precision] + s.search[engine][precision]
}

const docksPerPairOp = 4 // vina and ad4, each exact and tolerance

// The first scorer builds of a process fill the radial-table cache;
// their cost is set-up, kept once for the scorer_cold metrics.
var (
	coldScorers  sync.Once
	coldScorerMS [2]float64
)

// dockPair runs one seed's operation: prepare, generate the maps, then
// build a scorer and dock under each engine and precision, and write
// both exact results as DLG. The tolerance result must equal the exact
// one (the screen-then-confirm contract); a miss counts as a failure.
func dockPair(in pairInputs, seed int64, op int, tr *tracer, rep *report) (pairSample, error) {
	var s pairSample
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
	start := time.Now()
	root := tr.begin("pair", -1, op)
	defer tr.end(root)
	stage := func(name string, fn func() error) (float64, error) {
		id := tr.begin(name, root, op)
		t0 := time.Now()
		err := fn()
		d := ms(t0)
		tr.end(id)
		return d, err
	}

	var p *prepared
	var err error
	if s.prep, err = stage("prep", func() error { p, err = in.prepare(); return err }); err != nil {
		return s, err
	}
	if s.grid, err = stage("grid.generate", func() error {
		p.maps, err = grid.Generate(p.rec, p.spec, p.pl.Mol.AtomTypes())
		return err
	}); err != nil {
		return s, err
	}

	h := fnv.New64a()
	var exact [2]*dock.Result
	for pi, precision := range []dock.Precision{dock.PrecisionExact, dock.PrecisionTolerance} {
		var vs *vina.Scorer
		if s.scorer[0][pi], err = stage("vina.scorer", func() error { vs, err = vina.NewScorer(p.rec, p.lig); return err }); err != nil {
			return s, err
		}
		var res [2]*dock.Result
		if s.search[0][pi], err = stage("vina.search", func() error {
			eng := p.vinaEngine(in.def.Effort, seed)
			eng.Precision = precision
			res[0], err = eng.Dock(vs, p.lig)
			return err
		}); err != nil {
			return s, err
		}
		var as *ad4.Scorer
		if s.scorer[1][pi], err = stage("ad4.scorer", func() error { as, err = ad4.NewScorer(p.maps, p.lig); return err }); err != nil {
			return s, err
		}
		if s.search[1][pi], err = stage("ad4.search", func() error {
			eng := p.ad4Engine(in.def.Effort, seed)
			eng.Precision = precision
			res[1], err = eng.Dock(as, p.lig)
			return err
		}); err != nil {
			return s, err
		}
		for e, r := range res {
			rep.check(len(r.Runs) > 0, "%s/%s seed %d engine %d: no runs", in.def.Receptor, in.def.Ligand, seed, e)
			if pi == 0 {
				exact[e] = r
				hashResult(h, r)
			} else {
				rep.check(resultSum(r) == resultSum(exact[e]),
					"%s/%s seed %d engine %d: tolerance result differs from exact", in.def.Receptor, in.def.Ligand, seed, e)
			}
		}
	}

	if s.dlg, err = stage("formats.dlg", func() error {
		for _, r := range exact {
			doc, err := r.ToDLGWithClusters(p.lig, 2.0)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := formats.WriteDLG(&buf, doc); err != nil {
				return err
			}
			h.Write(buf.Bytes())
		}
		return nil
	}); err != nil {
		return s, err
	}
	coldScorers.Do(func() { coldScorerMS = [2]float64{s.scorer[0][0], s.scorer[1][0]} })
	s.total = ms(start)
	s.checksum = fmt.Sprintf("%016x", h.Sum64())
	return s, nil
}

// hashResult folds a docking result's energies and poses, bit for bit.
func hashResult(h interface{ Write([]byte) (int, error) }, r *dock.Result) {
	var b [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, run := range r.Runs {
		f(float64(run.Run))
		f(run.FEB)
		f(run.RMSD)
		t, q := run.Pose.Translation, run.Pose.Orientation
		for _, x := range []float64{t.X, t.Y, t.Z, q.W, q.X, q.Y, q.Z} {
			f(x)
		}
		for _, x := range run.Pose.Torsions {
			f(x)
		}
	}
}

func resultSum(r *dock.Result) uint64 {
	h := fnv.New64a()
	hashResult(h, r)
	return h.Sum64()
}

func (p *prepared) scorers() (*vina.Scorer, *ad4.Scorer, error) {
	vs, err := vina.NewScorer(p.rec, p.lig)
	if err != nil {
		return nil, nil, err
	}
	as, err := ad4.NewScorer(p.maps, p.lig)
	return vs, as, err
}
