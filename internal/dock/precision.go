package dock

// Precision is the type of the engines' inert Precision field. It no
// longer selects anything — both searches score every candidate through
// the exact per-pose Score — and stays, with its two values, only until
// bench/ stops assigning it.
type Precision int

const (
	PrecisionExact Precision = iota
	PrecisionTolerance
)
