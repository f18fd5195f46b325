// Package stats computes the performance metrics the paper reports:
// execution-time histograms (Figure 5), per-activity distributions
// (Figure 6), total execution time, speedup and efficiency series
// (Figures 7-9), with text renderings matching the paper's rows.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram of execution times.
type Histogram struct {
	Min, Width float64
	Counts     []int
	N          int
}

// NewHistogram bins the samples into `bins` equal-width buckets.
func NewHistogram(samples []float64, bins int) (*Histogram, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("stats: histogram of no samples")
	}
	if bins < 1 {
		return nil, fmt.Errorf("stats: %d bins", bins)
	}
	min, max := samples[0], samples[0]
	for _, s := range samples {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	width := (max - min) / float64(bins)
	if width == 0 {
		width = 1
	}
	h := &Histogram{Min: min, Width: width, Counts: make([]int, bins), N: len(samples)}
	for _, s := range samples {
		b := int((s - min) / width)
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
	}
	return h, nil
}

// Format renders the histogram as "[lo, hi): count" rows with a bar.
func (h *Histogram) Format() string {
	var sb strings.Builder
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*h.Width
		hi := lo + h.Width
		bar := ""
		if maxC > 0 {
			bar = strings.Repeat("#", c*40/maxC)
		}
		fmt.Fprintf(&sb, "[%9.1f, %9.1f) %6d %s\n", lo, hi, c, bar)
	}
	return sb.String()
}

// MeanStd returns the mean and (population) standard deviation of
// samples.
func MeanStd(samples []float64) (mean, std float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		std += (s - mean) * (s - mean)
	}
	std = math.Sqrt(std / float64(len(samples)))
	return
}

// PerfPoint is one (cores, TET) measurement of the scalability sweep.
type PerfPoint struct {
	Cores int
	TET   float64 // seconds
}

// Series is a scalability curve for one configuration (e.g. "SciDock
// AD4").
type Series struct {
	Label  string
	Points []PerfPoint
}

// baselineWork estimates the single-core TET as TET(min cores) ×
// min-cores, the paper's convention when a true 1-core run is
// impractical.
func (s *Series) baselineWork() (float64, error) {
	if len(s.Points) == 0 {
		return 0, fmt.Errorf("stats: empty series %q", s.Label)
	}
	min := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.Cores < min.Cores {
			min = p
		}
	}
	if min.Cores < 1 || min.TET <= 0 {
		return 0, fmt.Errorf("stats: series %q has invalid baseline point %+v", s.Label, min)
	}
	return min.TET * float64(min.Cores), nil
}

// Speedup returns S(c) = T1/T(c) per point, with T1 derived from the
// smallest-core measurement.
func (s *Series) Speedup() ([]PerfPoint, error) {
	t1, err := s.baselineWork()
	if err != nil {
		return nil, err
	}
	out := make([]PerfPoint, len(s.Points))
	for i, p := range s.Points {
		out[i] = PerfPoint{Cores: p.Cores, TET: t1 / p.TET}
	}
	return out, nil
}

// Efficiency returns E(c) = S(c)/c per point.
func (s *Series) Efficiency() ([]PerfPoint, error) {
	sp, err := s.Speedup()
	if err != nil {
		return nil, err
	}
	out := make([]PerfPoint, len(sp))
	for i, p := range sp {
		out[i] = PerfPoint{Cores: p.Cores, TET: p.TET / float64(p.Cores)}
	}
	return out, nil
}

// Improvement returns 1 - T(c)/T(base) relative to the series'
// smallest-core point — the "performance improvements up to 95.4%"
// metric of the paper.
func (s *Series) Improvement(cores int) (float64, error) {
	if len(s.Points) == 0 {
		return 0, fmt.Errorf("stats: empty series")
	}
	base := s.Points[0]
	var at *PerfPoint
	for i, p := range s.Points {
		if p.Cores < base.Cores {
			base = p
		}
		if p.Cores == cores {
			at = &s.Points[i]
		}
	}
	if at == nil {
		return 0, fmt.Errorf("stats: series %q has no %d-core point", s.Label, cores)
	}
	return 1 - at.TET/base.TET, nil
}

// FormatDuration renders seconds the way the paper writes TETs
// ("12.5 days", "11.9 hours").
func FormatDuration(secs float64) string {
	switch {
	case secs >= 36*3600:
		return fmt.Sprintf("%.1f days", secs/86400)
	case secs >= 3600:
		return fmt.Sprintf("%.1f hours", secs/3600)
	case secs >= 60:
		return fmt.Sprintf("%.1f minutes", secs/60)
	default:
		return fmt.Sprintf("%.1f seconds", secs)
	}
}

// FormatSeries renders one or more aligned scalability tables:
// cores, then one TET column per series.
func FormatSeries(metric string, series []Series, format func(float64) string) string {
	if format == nil {
		format = func(v float64) string { return fmt.Sprintf("%.2f", v) }
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "cores")
	for _, s := range series {
		fmt.Fprintf(&sb, " %22s", s.Label)
	}
	fmt.Fprintf(&sb, "   (%s)\n", metric)
	if len(series) == 0 {
		return sb.String()
	}
	for i, p := range series[0].Points {
		fmt.Fprintf(&sb, "%-8d", p.Cores)
		for _, s := range series {
			v := ""
			if i < len(s.Points) {
				v = format(s.Points[i].TET)
			}
			fmt.Fprintf(&sb, " %22s", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
