package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// Tuple fields flowing through SciDock.
const (
	FieldReceptor = "RECEPTOR"
	FieldLigand   = "LIGAND"
	FieldExpDir   = "EXPDIR"
	FieldProgram  = "PROGRAM"
	FieldMol2     = "MOL2"
	FieldLigPDBQT = "LIG_PDBQT"
	FieldRecPDBQT = "REC_PDBQT"
	FieldGPF      = "GPF"
	FieldFLD      = "FLD"
	FieldConf     = "DOCK_CONF"
	FieldDLG      = "DLG"
)

// builder binds one docking program's activity bodies to the
// campaign's product store. It caches nothing itself: every product a
// body derives from a receptor or ligand code comes from the store,
// which all workflows of the campaign share.
type builder struct {
	cfg     Config
	program prep.Program
	*store
}

// newBuilder uses the campaign's store when cfg carries one (it came
// through NewCampaign) and a private one otherwise.
func newBuilder(cfg Config, program prep.Program) *builder {
	st := cfg.store
	if st == nil {
		st = newStore(cfg)
	}
	return &builder{cfg: cfg, program: program, store: st}
}

// pairDir returns the shared-FS directory of one pair's artifacts.
func pairDir(expdir, program string, pair string) string {
	return fmt.Sprintf("%s%s/%s/", expdir, program, pair)
}

// BuildWorkflow assembles the 8-activity SciDock chain (Figure 1) for
// one docking program. Activity tags match the provenance tags of
// Figure 10.
func BuildWorkflow(cfg Config, program prep.Program) (*workflow.Workflow, error) {
	if err := cfg.Effort.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(cfg, program)
	dockTag := sched.TagDockAD4
	if program == prep.ProgramVina {
		dockTag = sched.TagDockVina
	}
	w := &workflow.Workflow{
		Tag:         "SciDock-" + strings.ToUpper(string(program)),
		Description: "Molecular docking-based virtual screening (" + string(program) + ")",
		ExecTag:     "scidock",
		ExpDir:      cfg.ExpDir,
		Activities: []*workflow.Activity{
			{Tag: sched.TagBabel, Op: workflow.Map,
				Template: "babel -isdf %LIGAND%.sdf -omol2 %LIGAND%.mol2",
				Run:      b.runBabel},
			{Tag: sched.TagLigPrep, Op: workflow.Map, Depends: []string{sched.TagBabel},
				Template: "prepare_ligand4.py -l %MOL2%",
				Run:      b.runLigPrep},
			{Tag: sched.TagRecPrep, Op: workflow.Map, Depends: []string{sched.TagLigPrep},
				Template: "prepare_receptor4.py -r %RECEPTOR%.pdb",
				Run:      b.runRecPrep},
			{Tag: sched.TagGPF, Op: workflow.Map, Depends: []string{sched.TagRecPrep},
				Template: "prepare_gpf4.py -l %LIG_PDBQT% -r %REC_PDBQT%",
				Run:      b.runGPF},
			{Tag: sched.TagAutoGrid, Op: workflow.Map, Depends: []string{sched.TagGPF},
				Template: "autogrid4 -p %GPF%",
				Run:      b.runAutoGrid},
			{Tag: sched.TagFilter, Op: workflow.Filter, Depends: []string{sched.TagAutoGrid},
				Template: "filter_by_size.py -r %RECEPTOR%",
				Run:      b.runFilter},
			{Tag: sched.TagDockPrep, Op: workflow.Map, Depends: []string{sched.TagFilter},
				Template: "prepare_dpf4.py -l %LIG_PDBQT% -r %REC_PDBQT%",
				Run:      b.runDockPrep},
			{Tag: dockTag, Op: workflow.Map, Depends: []string{sched.TagDockPrep},
				Template: string(program) + " -c %DOCK_CONF%",
				Run:      b.runDocking},
		},
	}
	return w, w.Validate()
}

// InputRelation builds the parameter-sweep relation of a dataset (one
// tuple per receptor-ligand pair).
func InputRelation(ds data.Dataset, expdir string) *workflow.Relation {
	var tuples []workflow.Tuple
	for _, p := range ds.Pairs() {
		tuples = append(tuples, workflow.Tuple{
			FieldReceptor: p.Receptor,
			FieldLigand:   p.Ligand,
			FieldExpDir:   expdir,
		})
	}
	return workflow.NewRelation("rel_in_1", tuples)
}

// --- activity bodies -------------------------------------------------

// runBabel is activity 1: SDF→Mol2 conversion with charge assignment.
func (b *builder) runBabel(in workflow.Tuple) (*workflow.ActivationResult, error) {
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	mol2, err := b.ligandMol2(lig)
	if err != nil {
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+in[FieldReceptor])
	name := lig + ".mol2"
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldMol2: dir + name})},
		Files:   []workflow.OutputFile{{Name: name, Dir: dir, Content: mol2.bytes}},
	}, nil
}

// runLigPrep is activity 2: Mol2→PDBQT with AutoDock typing.
func (b *builder) runLigPrep(in workflow.Tuple) (*workflow.ActivationResult, error) {
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	pl, err := b.preparedLigand(lig)
	if err != nil {
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+in[FieldReceptor])
	name := lig + ".pdbqt"
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldLigPDBQT: dir + name})},
		Files:   []workflow.OutputFile{{Name: name, Dir: dir, Content: pl.pdbqt}},
	}, nil
}

// runRecPrep is activity 3: PDB→PDBQT receptor preparation. Receptors
// carrying Hg reproduce §V.C's looping state: prepare_receptor4.py
// neither finishes nor errors, so the engine charges the loop timeout
// and aborts — unless the Hg guard rule aborted the activation first.
func (b *builder) runRecPrep(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	prec, err := b.preparedReceptor(rec)
	if err != nil {
		if errors.Is(err, prep.ErrUnsupportedAtom) {
			return nil, fmt.Errorf("%w: receptor %s: %v", engine.ErrLoop, rec, err)
		}
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), in[FieldLigand]+"_"+rec)
	name := rec + ".pdbqt"
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldRecPDBQT: dir + name})},
		Files:   []workflow.OutputFile{{Name: name, Dir: dir, Content: prec.pdbqt}},
	}, nil
}

// runGPF is activity 4: grid parameter file generation.
func (b *builder) runGPF(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	prec, err := b.preparedReceptor(rec)
	if err != nil {
		return nil, err
	}
	pl, err := b.preparedLigand(lig)
	if err != nil {
		return nil, err
	}
	spec := prec.spec
	g := prep.GPF{
		Receptor: rec + ".pdbqt",
		Ligand:   lig + ".pdbqt",
		Types:    pl.Mol.AtomTypes(),
		NPts:     spec.NPts,
		Spacing:  spec.Spacing,
		Center:   spec.Center,
	}
	var buf bytes.Buffer
	if err := prep.WriteGPF(&buf, &g); err != nil {
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+rec)
	name := lig + "_" + rec + ".gpf"
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldGPF: dir + name})},
		Files:   []workflow.OutputFile{{Name: name, Dir: dir, Content: buf.Bytes()}},
	}, nil
}

// runAutoGrid is activity 5: coordinate-map generation.
func (b *builder) runAutoGrid(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	pl, err := b.preparedLigand(lig)
	if err != nil {
		return nil, err
	}
	view, err := b.gridMaps(rec, pl.Mol.AtomTypes())
	if err != nil {
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+rec)
	name := rec + ".maps.fld"
	files := []workflow.OutputFile{{Name: name, Dir: dir, Content: view.fld}}
	if b.cfg.WriteMaps {
		// Materialize every coordinate map, as the real AutoGrid does
		// (this is where the paper's "600 GB per execution" comes
		// from).
		which := []string{"e", "d"}
		for _, t := range view.maps.Types() {
			which = append(which, string(t))
		}
		for _, wmap := range which {
			var buf bytes.Buffer
			if err := view.maps.WriteMap(&buf, wmap); err != nil {
				return nil, err
			}
			files = append(files, workflow.OutputFile{
				Name: rec + "." + wmap + ".map", Dir: dir, Content: buf.Bytes(),
			})
		}
	}
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldFLD: dir + name})},
		Files:   files,
	}, nil
}

// runFilter is activity 6: the in-house size filter. In adaptive mode
// only pairs whose receptor class matches this workflow's program
// pass; forced scenarios pass everything (the paper's Scenario I/II
// runs fixed the program for the whole set).
func (b *builder) runFilter(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	res := &workflow.ActivationResult{}
	if b.cfg.Mode == ModeAdaptive {
		if prep.FilterDocking(data.ReceptorMeta(rec)) != b.program {
			return res, nil // filtered out of this workflow
		}
	}
	res.Outputs = []workflow.Tuple{in.Merge(workflow.Tuple{FieldProgram: string(b.program)})}
	return res, nil
}

// runDockPrep is activity 7: DPF (AD4) or box config (Vina).
func (b *builder) runDockPrep(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	seed := b.pairSeed(rec, lig)
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+rec)
	var buf bytes.Buffer
	var name string
	if b.program == prep.ProgramAD4 {
		d := prep.DefaultDPF(lig+".pdbqt", rec+".maps.fld", seed)
		d.Runs = b.cfg.Effort.AD4Runs
		d.PopSize = b.cfg.Effort.AD4PopSize
		d.Gens = b.cfg.Effort.AD4Gens
		d.Evals = b.cfg.Effort.AD4Evals
		if err := prep.WriteDPF(&buf, &d); err != nil {
			return nil, err
		}
		name = lig + "_" + rec + ".dpf"
	} else {
		prec, err := b.preparedReceptor(rec)
		if err != nil {
			return nil, err
		}
		spec := prec.spec
		g := prep.GPF{Receptor: rec + ".pdbqt", NPts: spec.NPts, Spacing: spec.Spacing, Center: spec.Center}
		c := prep.DefaultVinaConfig(&g, lig+".pdbqt", seed)
		c.Exhaustiveness = b.cfg.Effort.VinaExhaustiveness
		c.NumModes = b.cfg.Effort.VinaModes
		if err := prep.WriteVinaConfig(&buf, &c); err != nil {
			return nil, err
		}
		name = lig + "_" + rec + ".conf"
	}
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldConf: dir + name})},
		Files:   []workflow.OutputFile{{Name: name, Dir: dir, Content: buf.Bytes()}},
	}, nil
}

func (b *builder) pairSeed(rec, lig string) int64 {
	return data.Seed(lig+"_"+rec) ^ b.cfg.Seed
}

// ligandLoops reports whether docking the ligand enters §V.C's looping
// state: it is problematic and steering has not blacklisted it.
func (c Config) ligandLoops(lig string) bool {
	return data.LigandMeta(lig).Problematic && !c.LigandBlacklist[lig]
}

// runDocking is activity 8: the docking execution itself.
// "Problematic" ligands reproduce §V.C's abnormal execution times:
// the docking program enters a loop the engine must abort.
func (b *builder) runDocking(in workflow.Tuple) (*workflow.ActivationResult, error) {
	rec, err := in.Get(FieldReceptor)
	if err != nil {
		return nil, err
	}
	lig, err := in.Get(FieldLigand)
	if err != nil {
		return nil, err
	}
	if b.cfg.ligandLoops(lig) {
		return nil, fmt.Errorf("%w: ligand %s keeps %s busy indefinitely", engine.ErrLoop, lig, b.program)
	}
	d, err := b.dockPair(rec, lig)
	if err != nil {
		return nil, err
	}
	res, dlig := d.res, d.lig
	// AutoDock's conformational clustering at the default 2.0 Å
	// tolerance populates the DLG histogram's cluster sizes.
	doc, err := res.ToDLGWithClusters(dlig, 2.0)
	if err != nil {
		return nil, err
	}
	var dlg bytes.Buffer
	if err := formats.WriteDLG(&dlg, doc); err != nil {
		return nil, err
	}
	dir := pairDir(in[FieldExpDir], string(b.program), lig+"_"+rec)
	name := lig + "_" + rec + ".dlg"
	best, err := res.Best()
	if err != nil {
		return nil, err
	}
	files := []workflow.OutputFile{{Name: name, Dir: dir, Content: dlg.Bytes()}}
	if b.program == prep.ProgramVina {
		// Vina additionally writes the docked modes as a multi-model
		// PDBQT (the "*_out.pdbqt" the paper's activity 8b describes).
		var poses [][]chem.Vec3
		var febs []float64
		for _, run := range res.Runs {
			poses = append(poses, dlig.Coords(run.Pose))
			febs = append(febs, run.FEB)
		}
		var out bytes.Buffer
		if err := formats.WritePDBQTModels(&out, dlig.Mol, poses, febs); err != nil {
			return nil, err
		}
		files = append(files, workflow.OutputFile{
			Name: lig + "_" + rec + "_out.pdbqt", Dir: dir, Content: out.Bytes(),
		})
	}
	return &workflow.ActivationResult{
		Outputs: []workflow.Tuple{in.Merge(workflow.Tuple{FieldDLG: dir + name})},
		Files:   files,
		Extract: map[string]string{
			"receptor": rec,
			"ligand":   lig,
			"program":  string(b.program),
			"feb":      fmt.Sprintf("%g", best.FEB),
			"rmsd":     fmt.Sprintf("%g", avgRMSD(res)),
			"nruns":    fmt.Sprintf("%d", len(res.Runs)),
		},
	}, nil
}

// avgRMSD averages the per-run RMSDs, the statistic Table 3 reports.
func avgRMSD(r *dock.Result) float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	var s float64
	for _, run := range r.Runs {
		s += run.RMSD
	}
	return round2(s / float64(len(r.Runs)))
}

// dockedPair is one docked pair: the result (reported FEBs, RMSDs to
// 0.01 Å), the conformational model, the search box and the scorer's
// reported-FEB function, which the redocking refinement reuses.
type dockedPair struct {
	res      *dock.Result
	lig      *dock.Ligand
	box      dock.Box
	reported func([]chem.Vec3) float64
}

// dockPair runs the configured docking engine on one pair and applies
// the program's FEB calibration.
func (b *builder) dockPair(rec, lig string) (*dockedPair, error) {
	prec, err := b.preparedReceptor(rec)
	if err != nil {
		return nil, err
	}
	pl, err := b.preparedLigand(lig)
	if err != nil {
		return nil, err
	}
	dlig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		return nil, err
	}
	seed := b.pairSeed(rec, lig)
	spec := prec.spec
	d := &dockedPair{lig: dlig, box: dock.Box{
		Center: spec.Center,
		Size: chem.V(
			float64(spec.NPts[0]-1)*spec.Spacing,
			float64(spec.NPts[1]-1)*spec.Spacing,
			float64(spec.NPts[2]-1)*spec.Spacing),
	}}

	if b.program == prep.ProgramAD4 {
		view, err := b.gridMaps(rec, pl.Mol.AtomTypes())
		if err != nil {
			return nil, err
		}
		scorer, err := ad4.NewScorer(view.maps, dlig)
		if err != nil {
			return nil, err
		}
		params := prep.DefaultDPF(lig, rec, seed)
		params.Runs = b.cfg.Effort.AD4Runs
		params.PopSize = b.cfg.Effort.AD4PopSize
		params.Gens = b.cfg.Effort.AD4Gens
		params.Evals = b.cfg.Effort.AD4Evals
		eng := &ad4.Engine{Params: params, Box: d.box}
		if d.res, err = eng.Dock(scorer, dlig); err != nil {
			return nil, err
		}
		d.reported = scorer.ReportedFEB
	} else {
		index, err := b.vinaIndex(rec)
		if err != nil {
			return nil, err
		}
		scorer, err := index.NewScorer(dlig)
		if err != nil {
			return nil, err
		}
		cfg := prep.VinaConfig{
			Receptor: rec + ".pdbqt", Ligand: lig + ".pdbqt",
			Center: d.box.Center, Size: d.box.Size,
			Exhaustiveness: b.cfg.Effort.VinaExhaustiveness,
			NumModes:       b.cfg.Effort.VinaModes,
			Seed:           seed,
		}
		eng := &vina.Engine{Config: cfg, StepsPerRestart: b.cfg.Effort.VinaSteps}
		if d.res, err = eng.Dock(scorer, dlig); err != nil {
			return nil, err
		}
		d.reported = scorer.ReportedFEB
	}
	b.report(d.res, dlig, d.reported)
	return d, nil
}

// report replaces each run's search objective with what the program
// prints: the reported FEB of the run's pose and the RMSD to 0.01 Å.
func (b *builder) report(res *dock.Result, dlig *dock.Ligand, reported func([]chem.Vec3) float64) {
	heavy := dlig.Mol.HeavyAtomCount()
	for i := range res.Runs {
		res.Runs[i].FEB = b.reportedFEB(reported(dlig.Coords(res.Runs[i].Pose)), heavy)
		res.Runs[i].RMSD = round2(res.Runs[i].RMSD)
	}
}

// reportedFEB maps a pose's raw reported energy to the FEB the
// campaign records: size-normalised, then calibrated for the builder's
// program (left normalised under Config.rawFEB).
func (b *builder) reportedFEB(raw float64, heavyAtoms int) float64 {
	norm := normalizeBySize(raw, heavyAtoms)
	switch {
	case b.cfg.rawFEB:
		return norm
	case b.program == prep.ProgramVina:
		return calibrateVina(norm)
	default:
		return calibrateAD4(norm)
	}
}
