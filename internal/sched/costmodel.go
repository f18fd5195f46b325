// Package sched reproduces SciCumulus' scheduling layer: the weighted
// cost model built from provenance history, the greedy scheduling
// algorithm whose planning overhead grows with the VM count (the
// efficiency-degradation mechanism of Figure 9), and the adaptive
// VM-scaling policy enabled by cloud elasticity.
package sched

import (
	"math/rand"
	"slices"
	"sync"

	"repro/internal/fmath"
	"repro/internal/lazyrand"
)

// Activity tags of the SciDock workflow, shared between the cost
// model, the engine and the provenance figures. The names match the
// tags visible in Figure 10 of the paper (with the "1k" suffix
// dropped).
const (
	TagBabel    = "babel"
	TagLigPrep  = "autoligand4"
	TagRecPrep  = "autoreceptor4"
	TagGPF      = "autogpf4"
	TagAutoGrid = "autogrid4"
	TagFilter   = "dockfilter"
	TagDockPrep = "configprep"
	TagDockAD4  = "autodock4"
	TagDockVina = "autodockvina"
)

// costEntry calibrates one activity: mean seconds on a reference core
// plus the clamp range, taken from the per-activity statistics the
// paper reports in Figure 10 (the docking means are inferred from the
// total execution times of Figure 7; see EXPERIMENTS.md).
type costEntry struct {
	mean  float64
	sigma float64 // lognormal shape
	min   float64
	max   float64
}

var costTable = map[string]costEntry{
	TagBabel:    {mean: 2.42, sigma: 0.55, min: 0.88, max: 12.6},
	TagLigPrep:  {mean: 27.45, sigma: 0.80, min: 2.0, max: 457.5},
	TagRecPrep:  {mean: 23.12, sigma: 0.75, min: 1.2, max: 122.6},
	TagGPF:      {mean: 19.99, sigma: 0.45, min: 1.5, max: 53.3},
	TagAutoGrid: {mean: 18.48, sigma: 0.60, min: 1.5, max: 163.4},
	TagFilter:   {mean: 1.10, sigma: 0.30, min: 0.2, max: 4.0},
	TagDockPrep: {mean: 42.95, sigma: 0.30, min: 18.7, max: 66.6},
	TagDockAD4:  {mean: 81.60, sigma: 0.70, min: 6.0, max: 640.0},
	TagDockVina: {mean: 27.81, sigma: 0.65, min: 1.9, max: 561.9},
}

// LoopTimeout is the virtual-time budget after which SciCumulus'
// steering aborts an activation stuck in the looping state (§V.C).
const LoopTimeout = 1800.0

// CostModel samples per-activation base costs (seconds on a reference
// core) from the paper's 10k-pair calibration. Deterministic: the same
// (activity, key) pair always samples the same cost, so repeated
// simulations agree.
type CostModel struct{}

// NewCostModel returns the paper-calibrated model.
func NewCostModel() *CostModel { return &CostModel{} }

// Mean returns the calibrated mean cost of an activity tag (0 for
// unknown tags).
func (c *CostModel) Mean(tag string) float64 {
	e, ok := costTable[tag]
	if !ok {
		return 0
	}
	return e.mean
}

// Sample draws the base cost of one activation, keyed by a stable
// string (e.g. "autodock4|0E6_2HHN"). The draw is lognormal with the
// calibrated shape, clamped to the observed range.
func (c *CostModel) Sample(tag, key string) float64 {
	e, ok := costTable[tag]
	if !ok {
		return 1.0
	}
	r := seeded(seedOf(tag, "|", key))
	// Lognormal with E[X] = mean: X = mean * exp(σZ - σ²/2).
	z := r.NormFloat64()
	generators.Put(r)
	x := e.mean * fmath.Exp(e.sigma*z-e.sigma*e.sigma/2)
	if x < e.min {
		x = e.min
	}
	if x > e.max {
		x = e.max
	}
	return x
}

// maxRetries is SciCumulus' re-execution cap: an activation fails at
// most this many times before its success.
const maxRetries = 5

// FailureRate is the transient activation failure probability the
// paper observed ("about 10% of activity execution failures").
const FailureRate = 0.10

// Attempts returns the simulated execution attempts of an activation:
// zero or more failed attempts (each consuming a fraction of the base
// cost before the failure is detected) followed by one full-cost
// success. Deterministic per key.
func (c *CostModel) Attempts(tag, key string, cost float64) []float64 {
	r := seeded(seedOf("fail|", tag, "|", key))
	var out [maxRetries + 1]float64
	n := 0
	for n < maxRetries && r.Float64() < FailureRate {
		// The failure surfaces partway through the execution.
		out[n] = cost * (0.1 + 0.8*r.Float64())
		n++
	}
	generators.Put(r)
	out[n] = cost
	return slices.Clone(out[:n+1])
}

// generators holds the cost model's reusable generators. Each draws
// from a lazyrand.Source, so seeding one yields exactly the stream
// rand.New(rand.NewSource(seed)) would, and a draw is a pure function
// of its seed either way; a Seed costs nothing instead of filling 607
// words, and pooling spares every activation two allocations.
var generators = sync.Pool{New: func() any { return rand.New(new(lazyrand.Source)) }}

// seeded returns a pooled generator seeded with seed. Put it back when
// the draw is done.
func seeded(seed int64) *rand.Rand {
	r := generators.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// FNV-64a parameters (hash/fnv), inlined so that hashing a key
// allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// seedOf is the FNV-64a hash of the concatenated parts, masked to a
// non-negative seed.
func seedOf(parts ...string) int64 {
	h := uint64(fnvOffset64)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
	}
	return int64(h & 0x7fffffffffffffff)
}
