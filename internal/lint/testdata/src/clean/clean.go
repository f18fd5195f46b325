// Package clean is the true-negative scilint fixture: it exercises
// the same constructs as the sick fixture — float comparison, error
// handling, map iteration — written the way the analyzers want them,
// and must produce zero findings.
package clean

import (
	"math"
	"sort"
	"strconv"
)

// AlmostEqual is the epsilon comparison floatcmp asks for.
func AlmostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// ParsePort propagates the parse error instead of discarding it.
func ParsePort(s string) (int, error) {
	return strconv.Atoi(s)
}

// SortedKeys collects map keys and sorts them, so the iteration order
// never reaches the output — the sanitized idiom detflow accepts.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
