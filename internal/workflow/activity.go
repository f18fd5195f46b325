package workflow

import (
	"fmt"
)

// Operator is the algebraic operator of an activity, determining its
// tuple fan-out.
type Operator int

// The SciCumulus algebra operators.
const (
	// Map consumes one tuple and produces exactly one tuple.
	Map Operator = iota
	// SplitMap consumes one tuple and produces one or more tuples.
	SplitMap
	// Filter consumes one tuple and produces zero or one tuple.
	Filter
	// Reduce consumes a group of tuples (keyed by GroupKey) and
	// produces one tuple per group.
	Reduce
)

func (o Operator) String() string {
	switch o {
	case Map:
		return "MAP"
	case SplitMap:
		return "SPLIT_MAP"
	case Filter:
		return "FILTER"
	case Reduce:
		return "REDUCE"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// ParseOperator reads the XML spelling of an operator.
func ParseOperator(s string) (Operator, error) {
	switch s {
	case "MAP", "":
		return Map, nil
	case "SPLIT_MAP":
		return SplitMap, nil
	case "FILTER":
		return Filter, nil
	case "REDUCE":
		return Reduce, nil
	default:
		return Map, fmt.Errorf("workflow: unknown operator %q", s)
	}
}

// OutputFile is a file produced by an activation: the engine stores
// Content on the shared file system at Dir/Name and registers the
// result into provenance (hfile rows; the paper's Query 2 mines
// these). The file system keeps Content itself (simfs.Write), so a
// body must not modify it after returning, and may return one slice
// under many names.
type OutputFile struct {
	Name    string
	Dir     string
	Content []byte
}

// ActivationResult is everything one activation hands back to the
// engine.
type ActivationResult struct {
	Outputs []Tuple      // per the operator's fan-out contract
	Files   []OutputFile // files registered into provenance
	// Extract carries domain values mined by the activity's extractor
	// (e.g. FEB/RMSD for docking), keyed by extractor field name.
	Extract map[string]string
}

// RunFunc is the body of a Map/SplitMap/Filter activity: it receives
// the consumed tuple and performs the real work (format conversion,
// grid generation, docking, ...).
type RunFunc func(in Tuple) (*ActivationResult, error)

// ReduceFunc is the body of a Reduce activity: it receives one whole
// group of tuples (sharing the GroupKey value) and folds it into a
// single output tuple.
type ReduceFunc func(group []Tuple) (*ActivationResult, error)

// Activity is one node of the workflow.
type Activity struct {
	Tag      string
	Op       Operator
	Template string   // instrumented command template (documentation + provenance)
	Depends  []string // tags of upstream activities
	GroupKey string   // Reduce only: tuple field to group by
	Run      RunFunc
	// RunReduce is the body for Op == Reduce (Run is ignored then).
	RunReduce ReduceFunc
}

// Validate checks the static fields.
func (a *Activity) Validate() error {
	if a.Tag == "" {
		return fmt.Errorf("workflow: activity with empty tag")
	}
	if a.Op == Reduce {
		if a.GroupKey == "" {
			return fmt.Errorf("workflow: reduce activity %q needs a GroupKey", a.Tag)
		}
		if a.RunReduce == nil {
			return fmt.Errorf("workflow: reduce activity %q has no RunReduce function", a.Tag)
		}
		return nil
	}
	if a.Run == nil {
		return fmt.Errorf("workflow: activity %q has no Run function", a.Tag)
	}
	return nil
}

// CheckFanOut validates an activation result against the operator's
// contract. The engine calls this after every activation, turning
// contract violations into activation failures rather than silent
// data corruption.
func (a *Activity) CheckFanOut(res *ActivationResult) error {
	n := len(res.Outputs)
	switch a.Op {
	case Map:
		if n != 1 {
			return fmt.Errorf("workflow: MAP activity %q produced %d tuples, want 1", a.Tag, n)
		}
	case SplitMap:
		if n < 1 {
			return fmt.Errorf("workflow: SPLIT_MAP activity %q produced no tuples", a.Tag)
		}
	case Filter:
		if n > 1 {
			return fmt.Errorf("workflow: FILTER activity %q produced %d tuples, want ≤ 1", a.Tag, n)
		}
	case Reduce:
		if n != 1 {
			return fmt.Errorf("workflow: REDUCE activity %q produced %d tuples, want 1", a.Tag, n)
		}
	}
	return nil
}
