// Package noise is the cold half of the detflow fixture: its import
// path has no deterministic-hot-path fragment, so the direct
// global-source draw below is not a finding here. The draw only
// becomes one when a hot package (testdata/src/internal/dock) calls
// in, at that call site.
package noise

import "math/rand"

// Wall returns an unseeded draw from the process-global source.
func Wall() float64 {
	return rand.Float64()
}

// Seeded draws from an injected source; calling it never taints.
func Seeded(r *rand.Rand) float64 {
	return r.Float64()
}
