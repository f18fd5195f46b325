package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/prep"
)

// TestFitFEBHitsItsTargets pins the fit's two promises on scores it has
// never seen: exactly target pairs report a negative FEB under the
// rounded constants and the 0.01 rounding of reported FEBs, and their
// mean sits on the requested level.
func TestFitFEBHitsItsTargets(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	norms := make([]float64, 928)
	for i := range norms {
		norms[i] = r.NormFloat64()*0.6 + 0.4
	}
	for _, tc := range []struct {
		target int
		level  float64
	}{{287, -6.6}, {355, -5.025}, {1, -3}} {
		fit, err := fitFEB(norms, tc.target, tc.level)
		if err != nil {
			t.Fatal(err)
		}
		if fit.Negative != tc.target || fit.Docked != len(norms) {
			t.Errorf("target %d: %d of %d pairs negative", tc.target, fit.Negative, fit.Docked)
		}
		if math.Abs(fit.MeanNegative-tc.level) > 0.02 {
			t.Errorf("target %d: mean FEB(-) %.3f, want %.3f", tc.target, fit.MeanNegative, tc.level)
		}
		if fit.Scale <= 0 {
			t.Errorf("target %d: scale %v does not preserve order", tc.target, fit.Scale)
		}
	}
	for _, target := range []int{0, len(norms)} {
		if _, err := fitFEB(norms, target, -5); err == nil {
			t.Errorf("target %d of %d accepted", target, len(norms))
		}
	}
	if _, err := fitFEB([]float64{1, 1, 1}, 2, -5); err == nil {
		t.Error("fit through identical scores accepted")
	}
}

// TestFitFEBThroughTheCampaign runs the fit end to end on a small
// sweep: both programs fitted from their own ddocking rows, raw scores
// (not the calibrated, rounded FEBs) reaching the fit, and the output
// naming the four constants calibrate.go carries.
func TestFitFEBThroughTheCampaign(t *testing.T) {
	cfg := smokeConfig(t, ModeAD4, 8, 2)
	cfg.DisableFailures = true
	fits, err := FitFEB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 || fits[0].Program != prep.ProgramAD4 || fits[1].Program != prep.ProgramVina {
		t.Fatalf("fits = %+v", fits)
	}
	for _, f := range fits {
		if f.Docked == 0 || f.Docked > cfg.Dataset.NumPairs() {
			t.Errorf("%s: %d pairs docked of %d", f.Program, f.Docked, cfg.Dataset.NumPairs())
		}
		if f.Negative != f.Target {
			t.Errorf("%s: %d FEB(-) pairs, target %d", f.Program, f.Negative, f.Target)
		}
	}
	out := FormatFEBFits(fits)
	for _, want := range []string{"ad4FEBScale", "ad4FEBOffset", "vinaFEBScale", "vinaFEBOffset"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %s:\n%s", want, out)
		}
	}
}
