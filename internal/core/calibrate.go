// Package core is SciDock: the molecular docking-based virtual
// screening workflow of the paper (§IV), assembled from the substrate
// packages and executed by the SciCumulus-like engine. It exposes the
// campaign API the examples, benchmarks and CLI tools build on.
package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"repro/internal/chem"
	"repro/internal/prep"
)

// Empirical scoring functions are regression-fitted against
// experimental binding data (Morris 1998 for AD4, Trott & Olson 2010
// for Vina). Our synthetic Peptidase_CA pockets need their own affine
// fit so the reported kcal/mol land on the paper's Table 3 scales:
// AD4 FEB(-) averages in −4.9…−8.4, Vina in −4.5…−5.7, with Vina
// converging on more pairs (355 vs 287 per 1,000). The constants
// below are that fit; EXPERIMENTS.md records the resulting Table 3.
// FEB_reported = scale*raw_normalized + offset, per program. They are
// the output of FitFEB over the full 952-pair Table 3 sweep at
// CampaignEffort (`dockbench -exp fit` prints them ready to paste):
// re-run it whenever the pose model, a scoring function or a search
// changes what the sweep docks.
const (
	ad4FEBScale   = 8.1078
	ad4FEBOffset  = -0.4762
	vinaFEBScale  = 4.0363
	vinaFEBOffset = +14.0216
)

// febTargets is what the fit aims for, from the paper's Table 3: the
// FEB(−) totals over its 952 pairs and the level of the FEB(−)
// averages (the mean of the four per-ligand averages: −4.9 −5.9 −8.4
// −7.2 for AD4, −4.5 −4.7 −5.7 −5.2 for Vina).
var febTargets = map[prep.Program]struct {
	negPer952 int
	level     float64 // kcal/mol
}{
	prep.ProgramAD4:  {287, -6.6},
	prep.ProgramVina: {355, -5.025},
}

// calibrateAD4 maps a raw AD4 grid-score to the reported FEB.
func calibrateAD4(raw float64) float64 {
	return round2(ad4FEBScale*raw + ad4FEBOffset)
}

// calibrateVina maps a raw Vina affinity to the reported FEB.
func calibrateVina(raw float64) float64 {
	return round2(vinaFEBScale*raw + vinaFEBOffset)
}

// FEBFit is one program's affine calibration as FitFEB derives it,
// with what it achieves on the sweep it was fitted to.
type FEBFit struct {
	Program       prep.Program
	Scale, Offset float64 // rounded to the four decimals calibrate.go carries
	Docked        int     // pairs the sweep docked
	Target        int     // FEB(−) pairs aimed for
	Negative      int     // FEB(−) pairs under Scale and Offset, after round2
	MeanNegative  float64 // mean reported FEB over those pairs, kcal/mol
}

// FitFEB re-derives the calibration constants. It runs cfg's sweep
// once per program with the calibration switched off, so each ddocking
// row carries the size-normalised raw score of the pair's best run,
// and fits each program's scores with fitFEB against febTargets (the
// FEB(−) total scaled to the dataset's pair count). cfg.Mode is
// ignored; the dataset is docked whole by both programs, as Table 3
// is.
func FitFEB(cfg Config) ([]FEBFit, error) {
	cfg.rawFEB = true
	var fits []FEBFit
	for _, m := range []struct {
		mode    Mode
		program prep.Program
	}{{ModeAD4, prep.ProgramAD4}, {ModeVina, prep.ProgramVina}} {
		cfg.Mode = m.mode
		camp, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		// internal/prov's seedSQL holds a copy of this SQL.
		res, err := camp.Engine.DB.Query(`SELECT feb FROM ddocking`)
		if err != nil {
			return nil, err
		}
		norms := make([]float64, 0, len(res.Rows))
		for _, row := range res.Rows {
			v, ok := row[0].(float64)
			if !ok {
				return nil, fmt.Errorf("core: ddocking.feb holds %T, want float64", row[0])
			}
			norms = append(norms, v)
		}
		tg := febTargets[m.program]
		target := int(math.Round(float64(tg.negPer952) * float64(cfg.Dataset.NumPairs()) / 952))
		fit, err := fitFEB(norms, target, tg.level)
		if err != nil {
			return nil, fmt.Errorf("core: %s fit: %w", m.program, err)
		}
		fit.Program = m.program
		fits = append(fits, fit)
	}
	return fits, nil
}

// fitFEB fits FEB = scale·norm + offset to one program's normalised
// scores: the threshold goes midway between the target-th and the next
// most favourable score, so exactly target pairs report a negative
// FEB, and the scale puts the mean of those on level. Reported FEBs
// are rounded to 0.01, so "negative" means below −0.005: that, not
// zero, is the value the threshold maps to.
func fitFEB(norms []float64, target int, level float64) (FEBFit, error) {
	if target < 1 || target >= len(norms) {
		return FEBFit{}, fmt.Errorf("target of %d favourable pairs needs more than %d docked", target, len(norms))
	}
	sorted := append([]float64(nil), norms...)
	sort.Float64s(sorted)
	threshold := (sorted[target-1] + sorted[target]) / 2
	var depth float64 // mean distance of the favourable scores below the threshold
	for _, v := range sorted[:target] {
		depth += threshold - v
	}
	depth /= float64(target)
	if depth <= 0 {
		return FEBFit{}, fmt.Errorf("the %d most favourable scores are all %v", target+1, threshold)
	}
	const negEdge = -0.005 // round2 reports anything above this as 0.00
	round4 := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	fit := FEBFit{Docked: len(norms), Target: target}
	fit.Scale = round4((negEdge - level) / depth)
	fit.Offset = round4(negEdge - fit.Scale*threshold)
	for _, v := range sorted {
		if feb := round2(fit.Scale*v + fit.Offset); feb < 0 {
			fit.Negative++
			fit.MeanNegative += feb
		}
	}
	if fit.Negative > 0 {
		fit.MeanNegative /= float64(fit.Negative)
	}
	return fit, nil
}

// FormatFEBFits renders the fits as what they achieve and as the
// constant block to paste into calibrate.go.
func FormatFEBFits(fits []FEBFit) string {
	var sb strings.Builder
	for _, f := range fits {
		fmt.Fprintf(&sb, "%-9s docked %d, FEB(-) %d (target %d), mean FEB(-) %.2f (target %.2f)\n",
			f.Program, f.Docked, f.Negative, f.Target, f.MeanNegative, febTargets[f.Program].level)
	}
	sb.WriteString("constants for internal/core/calibrate.go:\n")
	for _, f := range fits {
		name := "ad4"
		if f.Program == prep.ProgramVina {
			name = "vina"
		}
		fmt.Fprintf(&sb, "\t%-13s = %.4f\n\t%-13s = %+.4f\n",
			name+"FEBScale", f.Scale, name+"FEBOffset", f.Offset)
	}
	return sb.String()
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// referenceHeavyAtoms anchors the ligand-efficiency normalization:
// raw intermolecular scores scale with ligand size, so the calibration
// regresses them to a 15-heavy-atom reference before the affine fit
// (empirical scoring functions fit per-atom contributions the same
// way).
const referenceHeavyAtoms = 15.0

func normalizeBySize(raw float64, heavyAtoms int) float64 {
	if heavyAtoms < 1 {
		heavyAtoms = 1
	}
	return raw * referenceHeavyAtoms / float64(heavyAtoms)
}

// ligandFrameOffset is the displacement of a ligand's deposited
// (input-file) coordinate frame from the receptor frame. Crystal
// structures deposit het groups wherever the asymmetric unit put
// them, so blind-docking DLG RMSDs — measured against the input frame
// — are dominated by this offset (the paper's AD4 RMSDs of 53-57 Å).
// Deterministic per ligand code.
func ligandFrameOffset(code string) chem.Vec3 {
	h := fnv.New64a()
	h.Write([]byte("frame|" + code))
	v := h.Sum64()
	// Direction from two hash-derived angles; magnitude 48-62 Å.
	theta := float64(v&0xffff) / 65535 * math.Pi
	phi := float64((v>>16)&0xffff) / 65535 * 2 * math.Pi
	mag := 48 + float64((v>>32)&0xff)/255*14
	return chem.V(
		mag*math.Sin(theta)*math.Cos(phi),
		mag*math.Sin(theta)*math.Sin(phi),
		mag*math.Cos(theta),
	)
}
