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
	"encoding/binary"
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

// Value is a typed scalar. Values are comparable and usable as map keys
// (hash-index probes); NaN floats are rejected at insert time to keep that
// property sound.
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

// Bool returns the BOOL payload (false for other types).
func (v Value) Bool() bool { return v.b }

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

// appendKey appends an encoding of v that two values share only when they
// are identical: the type, then a fixed-width payload or, for strings, a
// length-prefixed one, so a concatenation of keys cannot collide either
// ("ab","c" vs "a","bc").
func (v Value) appendKey(b []byte) []byte {
	b = append(b, byte(v.t))
	switch v.t {
	case Int:
		return binary.LittleEndian.AppendUint64(b, uint64(v.i))
	case Float:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.f))
	case String:
		b = binary.AppendUvarint(b, uint64(len(v.s)))
		return append(b, v.s...)
	case Bool:
		if v.b {
			return append(b, 1)
		}
		return append(b, 0)
	default:
		return b
	}
}

// Compare orders two values of the same type: -1, 0, or +1. Numeric types
// compare by numeric value, so INT and FLOAT are mutually comparable.
// Comparing other mixed types returns an error.
func Compare(a, b Value) (int, error) {
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.t != b.t {
		return 0, fmt.Errorf("statsdb: cannot compare %s with %s", a.t, b.t)
	}
	switch a.t {
	case String:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case Bool:
		switch {
		case !a.b && b.b:
			return -1, nil
		case a.b && !b.b:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("statsdb: cannot compare values of type %s", a.t)
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
