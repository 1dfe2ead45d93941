// Package statsdb is the forecast factory's statistics database: a small
// in-memory relational engine holding one tuple per run execution,
// populated by crawling run-directory logs (§4.3.2 of the paper).
//
// It provides typed tables with hash indexes, a query API with predicate
// filtering, grouping/aggregation, ordering, and limits, and a SQL-subset
// front end (SELECT ... FROM ... WHERE ... GROUP BY ... ORDER BY ...
// LIMIT ...), so factory managers can ask questions like "find all
// forecasts that use code version X" or chart walltime trends per day.
package statsdb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Type is a column type.
type Type int

// Column types supported by the engine.
const (
	Int Type = iota
	Float
	String
	Bool
)

// String names the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Bool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a typed scalar: a query's literal and its result cells. NaN
// floats are rejected at insert time, since they break hashing and
// ordering.
type Value struct {
	t Type
	i int64
	f float64
	s string
	b bool
}

// IntVal makes an INT value.
func IntVal(v int64) Value { return Value{t: Int, i: v} }

// FloatVal makes a FLOAT value.
func FloatVal(v float64) Value { return Value{t: Float, f: v} }

// StringVal makes a STRING value.
func StringVal(v string) Value { return Value{t: String, s: v} }

// BoolVal makes a BOOL value.
func BoolVal(v bool) Value { return Value{t: Bool, b: v} }

// Type returns the value's type.
func (v Value) Type() Type { return v.t }

// Int returns the INT payload (0 for other types).
func (v Value) Int() int64 { return v.i }

// Float returns the numeric payload, converting INT to float64.
func (v Value) Float() float64 {
	if v.t == Int {
		return float64(v.i)
	}
	return v.f
}

// Str returns the STRING payload ("" for other types).
func (v Value) Str() string { return v.s }

// IsNumeric reports whether the value is INT or FLOAT.
func (v Value) IsNumeric() bool { return v.t == Int || v.t == Float }

// String renders the value for display.
func (v Value) String() string {
	switch v.t {
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case String:
		return v.s
	case Bool:
		return strconv.FormatBool(v.b)
	default:
		return "?"
	}
}

// comparableTypes reports whether Compare orders values of types a and b:
// the same type, or both numeric.
func comparableTypes(a, b Type) bool {
	return a == b || (a == Int || a == Float) && (b == Int || b == Float)
}

// Compare orders two values of the same type: -1, 0, or +1. Numeric types
// compare by numeric value, so INT and FLOAT are mutually comparable: two
// INTs exactly, an INT and a FLOAT as float64s. Comparing other mixed
// types returns an error.
func Compare(a, b Value) (int, error) {
	switch {
	case a.t == Int && b.t == Int:
		return order(a.i, b.i), nil
	case a.IsNumeric() && b.IsNumeric():
		return order(a.Float(), b.Float()), nil
	case a.t != b.t:
		return 0, fmt.Errorf("statsdb: cannot compare %s with %s", a.t, b.t)
	case a.t == String:
		return order(a.s, b.s), nil
	case a.t == Bool:
		return order(boolCode(a.b), boolCode(b.b)), nil
	default:
		return 0, fmt.Errorf("statsdb: cannot compare values of type %s", a.t)
	}
}

// order is -1, 0 or +1 as a is below, neither, or above b (0 for a NaN).
func order[T cmp.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// checkValue rejects values the engine cannot store (NaN breaks index
// hashing and ordering).
func checkValue(v Value) error {
	if v.t == Float && math.IsNaN(v.f) {
		return fmt.Errorf("statsdb: NaN float values are not storable")
	}
	return nil
}
