package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	ys := sorted(xs)
	if len(ys) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return ys[lo] + (ys[hi]-ys[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// the acceptance rule for this benchmark is stated in those terms. A
// sample of fewer than two values has no spread: all three are the
// value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	ys := sorted(xs)
	n := len(ys)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return ys[0], ys[0], ys[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (ys[j-1]*(4-delta) + ys[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median,
// the run-to-run noise figure the regression bounds are judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
