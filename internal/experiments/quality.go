package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// qualitySeeds are the search seeds every quality row averages over.
var qualitySeeds = []int64{1, 2, 3, 4, 5, 6}

// qualityPanel is the campaign panel of the quality report: the four
// Table 3 ligands on these receptors.
var qualityPanel = []string{"2HHN", "1CSB", "3BPF", "1AIM"}

// qualityVinaSteps are the Metropolis step counts the panel is docked
// at with Vina, so that energies can be compared at matched evaluation
// counts.
var qualityVinaSteps = []int{1, 2, 5, 14}

// largeEffort is the effort the large pair (9XLR/XL1) is docked at,
// the benchmark's dock_large effort: the campaign preset with two
// Metropolis steps per Vina chain and a 44-point, 1 Å lattice that
// holds the large receptor.
func largeEffort() core.Effort {
	e := core.CampaignEffort()
	e.VinaSteps = 2
	e.GridNPts, e.GridSpacing = 44, 1.0
	return e
}

// qualityPair is one prepared receptor-ligand pair with its search box
// at one effort and both engines' scorers.
type qualityPair struct {
	rec  *chem.Molecule
	lig  *dock.Ligand
	box  dock.Box
	vina *vina.Scorer
	ad4  *ad4.Scorer
}

// qualityCase is one row group: the pairs docked, at one effort.
type qualityCase struct {
	label  string
	effort core.Effort
	pairs  [][2]string // receptor, ligand
}

// Quality reports how deep each engine's search gets for the work it
// does: per case and engine, the mean over seeds 1-6 and over the
// case's pairs of the best raw search energy (the engine's objective,
// before calibration) and the mean number of poses scored per dock.
// It is a maintenance report, not a paper artifact: `all` does not run
// it, and results_quality.txt holds its current output.
func (s *Suite) Quality() (string, error) {
	var panel [][2]string
	for _, rec := range qualityPanel {
		for _, lig := range data.Table3Ligands {
			panel = append(panel, [2]string{rec, lig})
		}
	}
	cases := []qualityCase{
		{"2HHN/0E6, quick effort", core.QuickEffort(), [][2]string{{"2HHN", "0E6"}}},
		{"9XLR/XL1, large effort", largeEffort(), [][2]string{{data.LargeReceptorCode, data.LargeLigandCode}}},
		{fmt.Sprintf("panel (%d pairs), campaign effort", len(panel)), core.CampaignEffort(), panel},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SEARCH QUALITY (mean over seeds %d-%d: best raw search energy, poses scored per dock)\n",
		qualitySeeds[0], qualitySeeds[len(qualitySeeds)-1])
	fmt.Fprintf(&sb, "%-34s %-6s %6s %12s %12s\n", "case", "engine", "steps", "energy", "evaluations")
	for _, c := range cases {
		pairs := make([]*qualityPair, len(c.pairs))
		for i, def := range c.pairs {
			p, err := prepareQualityPair(def[0], def[1], c.effort)
			if err != nil {
				return "", err
			}
			pairs[i] = p
		}
		steps := []int{c.effort.VinaSteps}
		if len(c.pairs) > 1 {
			steps = qualityVinaSteps
		}
		for _, n := range steps {
			energy, evals, err := meanOverSeeds(pairs, func(p *qualityPair, seed int64) (*dock.Result, error) {
				eng := &vina.Engine{
					Config: prep.VinaConfig{
						Center: p.box.Center, Size: p.box.Size,
						Exhaustiveness: c.effort.VinaExhaustiveness, NumModes: c.effort.VinaModes, Seed: seed,
					},
					StepsPerRestart: n,
				}
				return eng.Dock(p.vina, p.lig)
			})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%-34s %-6s %6d %12.3f %12.0f\n", c.label, "vina", n, energy, evals)
		}
		energy, evals, err := meanOverSeeds(pairs, func(p *qualityPair, seed int64) (*dock.Result, error) {
			params := prep.DefaultDPF(p.lig.Mol.Name, p.rec.Name, seed)
			params.Runs, params.PopSize, params.Gens, params.Evals = c.effort.AD4Runs, c.effort.AD4PopSize, c.effort.AD4Gens, c.effort.AD4Evals
			return (&ad4.Engine{Params: params, Box: p.box}).Dock(p.ad4, p.lig)
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-34s %-6s %6s %12.3f %12.0f\n", c.label, "ad4", "-", energy, evals)
	}
	return sb.String(), nil
}

// meanOverSeeds docks every pair at every quality seed and returns the
// mean best energy and the mean evaluation count per dock.
func meanOverSeeds(pairs []*qualityPair, dockOne func(*qualityPair, int64) (*dock.Result, error)) (energy, evals float64, err error) {
	n := 0
	for _, p := range pairs {
		for _, seed := range qualitySeeds {
			res, err := dockOne(p, seed)
			if err != nil {
				return 0, 0, err
			}
			best, err := res.Best()
			if err != nil {
				return 0, 0, err
			}
			energy += best.FEB
			evals += float64(res.Stats.Evaluations)
			n++
		}
	}
	return energy / float64(n), evals / float64(n), nil
}

// prepareQualityPair prepares a pair as the workflow does and lays out
// the lattice and the search box on the receptor's bounding box at the
// effort's grid, then builds both engines' scorers.
func prepareQualityPair(recCode, ligCode string, e core.Effort) (*qualityPair, error) {
	var rawRec, rawLig *chem.Molecule
	if recCode == data.LargeReceptorCode {
		rawRec, _ = data.GenerateLargeReceptor()
	} else {
		rawRec, _ = data.GenerateReceptor(recCode)
	}
	if ligCode == data.LargeLigandCode {
		rawLig, _ = data.GenerateLargeLigand()
	} else {
		rawLig, _ = data.GenerateLigand(ligCode)
	}
	rec, err := prep.PrepareReceptor(rawRec)
	if err != nil {
		return nil, fmt.Errorf("experiments: prepare receptor %s: %w", recCode, err)
	}
	mol2, err := prep.ConvertSDFToMol2(rawLig)
	if err != nil {
		return nil, fmt.Errorf("experiments: convert ligand %s: %w", ligCode, err)
	}
	pl, err := prep.PrepareLigand(mol2)
	if err != nil {
		return nil, fmt.Errorf("experiments: prepare ligand %s: %w", ligCode, err)
	}
	lig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		return nil, err
	}
	lo, hi := chem.BoundingBox(rec.Positions())
	spec := grid.Spec{Center: lo.Lerp(hi, 0.5), NPts: [3]int{e.GridNPts, e.GridNPts, e.GridNPts}, Spacing: e.GridSpacing}
	side := float64(e.GridNPts-1) * e.GridSpacing
	maps, err := grid.Generate(rec, spec, pl.Mol.AtomTypes())
	if err != nil {
		return nil, err
	}
	p := &qualityPair{rec: rec, lig: lig, box: dock.Box{Center: spec.Center, Size: chem.V(side, side, side)}}
	if p.vina, err = vina.NewScorer(rec, lig); err != nil {
		return nil, err
	}
	if p.ad4, err = ad4.NewScorer(maps, lig); err != nil {
		return nil, err
	}
	return p, nil
}
