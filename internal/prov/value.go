// Package prov reproduces SciCumulus' provenance layer: a relational
// store following the PROV-Wf model (hworkflow, hactivity,
// hactivation, hfile, ...) and an embedded SQL engine able to execute
// the paper's analytical queries verbatim (Query 1, Query 2 and the
// Figure-5 histogram query), replacing the PostgreSQL 8.4 instance of
// the original deployment.
package prov

import (
	"fmt"
	"strings"
	"time"
)

// Value is one cell of a relation: nil, string, int64, float64 or
// time.Time.
type Value interface{}

// Type tags the declared type of a column.
type Type int

// Column types.
const (
	TString Type = iota
	TInt
	TFloat
	TTime
)

func (t Type) String() string {
	switch t {
	case TString:
		return "varchar"
	case TInt:
		return "bigint"
	case TFloat:
		return "double precision"
	case TTime:
		return "timestamp"
	default:
		return "unknown"
	}
}

// checkType verifies a value conforms to a column type (nil always
// passes).
func checkType(v Value, t Type) error {
	if v == nil {
		return nil
	}
	ok := false
	switch t {
	case TString:
		_, ok = v.(string)
	case TInt:
		_, ok = v.(int64)
	case TFloat:
		_, ok = v.(float64)
	case TTime:
		_, ok = v.(time.Time)
	}
	if !ok {
		return fmt.Errorf("prov: value %v (%T) does not match column type %s", v, v, t)
	}
	return nil
}

// numeric converts ints and floats to float64 for arithmetic.
func numeric(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// compareValues orders two values: numbers by magnitude, strings
// lexically, times chronologically. nil sorts first. NaN takes
// PostgreSQL's order, which the index's nanKey matches: equal to NaN,
// above every other number. Mixed incomparable types order by type
// name for determinism.
func compareValues(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if fa, ok := numeric(a); ok {
		if fb, ok := numeric(b); ok {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			case fa != fa && fb != fb:
				return 0
			case fa != fa:
				return 1
			case fb != fb:
				return -1
			default:
				return 0
			}
		}
	}
	if sa, ok := a.(string); ok {
		if sb, ok := b.(string); ok {
			return strings.Compare(sa, sb)
		}
	}
	if ta, ok := a.(time.Time); ok {
		if tb, ok := b.(time.Time); ok {
			switch {
			case ta.Before(tb):
				return -1
			case ta.After(tb):
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(fmt.Sprintf("%T", a), fmt.Sprintf("%T", b))
}

// formatValue renders a value the way psql prints it (used by the
// result-table writer).
func formatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		s := fmt.Sprintf("%.6f", x)
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
		if s == "" || s == "-" {
			s = "0"
		}
		return s
	case time.Time:
		return x.Format("2006-01-02 15:04:05.000")
	default:
		return fmt.Sprintf("%v", x)
	}
}
