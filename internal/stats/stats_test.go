package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
		if c != 2 {
			t.Errorf("counts = %v, want uniform 2s", h.Counts)
		}
	}
	if total != 10 || h.N != 10 {
		t.Errorf("total = %d, N = %d", total, h.N)
	}
	out := h.Format()
	if !strings.Contains(out, "#") {
		t.Errorf("format lacks bars:\n%s", out)
	}
	if _, err := NewHistogram(nil, 5); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	// Constant samples don't divide by zero.
	if _, err := NewHistogram([]float64{3, 3, 3}, 4); err != nil {
		t.Errorf("constant samples: %v", err)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-9 || math.Abs(std-2) > 1e-9 {
		t.Errorf("mean=%v std=%v", mean, std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty MeanStd should be zero")
	}
}

func seriesFixture() Series {
	return Series{
		Label: "SciDock-AD4",
		Points: []PerfPoint{
			{Cores: 2, TET: 1000},
			{Cores: 4, TET: 520},
			{Cores: 8, TET: 280},
			{Cores: 16, TET: 160},
		},
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	s := seriesFixture()
	sp, err := s.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	// T1 = 2 × 1000 = 2000.
	if math.Abs(sp[0].TET-2) > 1e-9 {
		t.Errorf("speedup@2 = %v, want 2", sp[0].TET)
	}
	if math.Abs(sp[3].TET-12.5) > 1e-9 {
		t.Errorf("speedup@16 = %v, want 12.5", sp[3].TET)
	}
	eff, err := s.Efficiency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff[0].TET-1) > 1e-9 {
		t.Errorf("efficiency@2 = %v, want 1", eff[0].TET)
	}
	if math.Abs(eff[3].TET-12.5/16) > 1e-9 {
		t.Errorf("efficiency@16 = %v", eff[3].TET)
	}
}

func TestImprovement(t *testing.T) {
	s := seriesFixture()
	imp, err := s.Improvement(16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp-0.84) > 1e-9 {
		t.Errorf("improvement@16 = %v, want 0.84", imp)
	}
	if _, err := s.Improvement(999); err == nil {
		t.Error("missing point accepted")
	}
	empty := Series{}
	if _, err := empty.Improvement(2); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := empty.Speedup(); err == nil {
		t.Error("empty speedup accepted")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		1080000: "12.5 days",
		42840:   "11.9 hours",
		90:      "1.5 minutes",
		12:      "12.0 seconds",
	}
	for secs, want := range cases {
		if got := FormatDuration(secs); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", secs, got, want)
		}
	}
}

func TestFormatSeries(t *testing.T) {
	s := seriesFixture()
	out := FormatSeries("TET", []Series{s}, FormatDuration)
	if !strings.Contains(out, "SciDock-AD4") || !strings.Contains(out, "16.7 minutes") {
		t.Errorf("format:\n%s", out)
	}
	// Default formatter path.
	out = FormatSeries("speedup", []Series{s}, nil)
	if !strings.Contains(out, "1000.00") {
		t.Errorf("default format:\n%s", out)
	}
	if got := FormatSeries("x", nil, nil); !strings.Contains(got, "cores") {
		t.Errorf("empty series format: %q", got)
	}
}
