// Package sick is a scilint test fixture: every function below
// violates one analyzer on purpose. The package type-checks cleanly —
// the defects are semantic, which is exactly what the analyzers are
// for. testdata is invisible to go build, go vet and scilint's own
// "./..." walk; only the internal/lint and cmd/scilint tests load it.
package sick

import "strconv"

// FloatEqual compares computed floats exactly (floatcmp).
func FloatEqual(a, b float64) bool {
	return a == b
}

// ParsePort drops the parse error on the floor (discarderr).
func ParsePort(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
