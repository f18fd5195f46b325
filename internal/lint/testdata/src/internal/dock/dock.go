// Package dock is the detflow scilint fixture. Its directory path
// contains "internal/dock", which puts it on the deterministic hot-path
// list: global rand calls and wall-clock reads are findings here at
// every call site, while the injected seeded source is not. The
// *CrossPackage and Emit* functions below reach the same sources
// through call chains, which detflow's call-graph taint follows.
package dock

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/lint/testdata/src/noise"
)

// Jitter draws from the process-global rand source (detflow).
func Jitter() float64 {
	return rand.Float64()
}

// Stamp reads the wall clock in a hot path (detflow).
func Stamp() time.Time {
	return time.Now()
}

// Seeded uses the approved injected-source pattern: constructors are
// exempt, and methods on the local *rand.Rand are invisible to the
// global-source check.
func Seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// PoolGlobalRand mirrors the worker-pool shape of the parallel search
// engines but draws from the process-global source inside the worker
// goroutine — non-reproducible across worker counts (detflow).
func PoolGlobalRand(chains int) []float64 {
	out := make([]float64, chains)
	done := make(chan int)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for c := w; c < chains; c += 2 {
				out[c] = rand.Float64()
			}
			done <- w
		}(w)
	}
	<-done
	<-done
	return out
}

// JitterCrossPackage reaches the process-global rand source through a
// helper in a cold package: there is no direct draw here, and noise is
// not a hot path, so detflow reports this call site with the chain
// down to the source (detflow).
func JitterCrossPackage() float64 {
	return noise.Wall()
}

// JitterSeededCrossPackage injects a seeded source into the same cold
// helper package, which sanitizes the subtree (clean).
func JitterSeededCrossPackage(seed int64) float64 {
	return noise.Seeded(rand.New(rand.NewSource(seed)))
}

// typeNames accumulates map keys in Go's randomized iteration order —
// an order-sensitive fold that makes the function a taint source.
func typeNames(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// EmitTypes calls the order-sensitive helper from a hot path
// (detflow).
func EmitTypes(m map[string]int) []string {
	return typeNames(m)
}

// sortedTypeNames sorts after collecting — the sorted-key idiom that
// sanitizes map iteration.
func sortedTypeNames(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EmitTypesSorted stays clean: the helper's sort removes the taint.
func EmitTypesSorted(m map[string]int) []string {
	return sortedTypeNames(m)
}

// PoolSeededRand is the approved pattern the Vina and AD4 search pools
// use: every chain derives its own rand.Rand from the chain index, so
// trajectories are identical for any worker count (clean).
func PoolSeededRand(seed int64, chains int) []float64 {
	out := make([]float64, chains)
	done := make(chan int)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for c := w; c < chains; c += 2 {
				r := rand.New(rand.NewSource(seed + int64(c)*104729))
				out[c] = r.Float64()
			}
			done <- w
		}(w)
	}
	<-done
	<-done
	return out
}
