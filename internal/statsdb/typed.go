package statsdb

import (
	"encoding"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// TypedTable declares a fixed-schema table by a struct type, so a struct
// tag is the single declaration of each column's name, type and order.
// Each field tagged `db:"name"` is one column, in field order; anonymous
// embedded structs are flattened in place and untagged fields are not
// stored. int and int64 store as INT, float64 as FLOAT, string as
// STRING, bool as BOOL; a TextMarshaler/TextUnmarshaler stores its text
// and a fixed int array its comma-joined elements, both as STRING.
//
// Every Go value that becomes a row goes through one codec: the
// declaration resolves each column to its field's byte offset in T and
// its kind, and a row is encoded and decoded through that list, reading
// and writing each INT, FLOAT, STRING or BOOL field in place. Only the
// two text-coded kinds convert per cell.
//
// One NaN policy covers every table: non-finite floats persist as 0,
// since the engine rejects NaN (it breaks index hashing and ordering).
// Loaders of outside input (run logs, traces) refuse them first.
type TypedTable[T any] struct {
	name    string
	schema  Schema
	fields  []typedField // fields[i] backs schema[i]
	indexes []string
}

// fieldKind is how one field's bytes convert to and from its column.
type fieldKind uint8

const (
	kindInt    fieldKind = iota // int → INT
	kindInt64                   // int64 → INT
	kindFloat                   // float64 → FLOAT, non-finite as 0
	kindString                  // string → STRING
	kindBool                    // bool → BOOL
	kindText                    // TextMarshaler and TextUnmarshaler → STRING
	kindInts                    // fixed array of int or int64 → comma-joined STRING
)

// typedField locates one column's struct field and says how it converts.
type typedField struct {
	off  uintptr // byte offset in T, summed through embedded structs
	kind fieldKind
	typ  reflect.Type // the field's type, for kindText and kindInts
}

// NewTypedTable declares table name over T's tagged fields, with a hash
// index on each named column. Declare tables at package level: it panics
// on a field type the mapping cannot store, so a bad declaration fails
// at init rather than on the first insert.
func NewTypedTable[T any](name string, indexes ...string) *TypedTable[T] {
	tt := &TypedTable[T]{name: name, indexes: indexes}
	tt.addFields(reflect.TypeFor[T](), 0)
	if _, err := NewTable(name, tt.schema); err != nil {
		panic(err.Error())
	}
	for _, col := range indexes {
		if tt.schema.Index(col) < 0 {
			panic(fmt.Sprintf("statsdb: table %s: index on unknown column %q", name, col))
		}
	}
	return tt
}

func (tt *TypedTable[T]) addFields(rt reflect.Type, base uintptr) {
	for i := 0; rt.Kind() == reflect.Struct && i < rt.NumField(); i++ {
		f := rt.Field(i)
		col, tagged := f.Tag.Lookup("db")
		if !tagged {
			if f.Anonymous {
				tt.addFields(f.Type, base+f.Offset)
			}
			continue
		}
		typ, kind, ok := columnOf(f.Type)
		if !ok || !f.IsExported() {
			panic(fmt.Sprintf("statsdb: table %s: column %q (field %s %s) cannot be stored", tt.name, col, f.Name, f.Type))
		}
		tt.schema = append(tt.schema, Column{Name: col, Type: typ})
		tt.fields = append(tt.fields, typedField{off: base + f.Offset, kind: kind, typ: f.Type})
	}
}

// columnOf maps a field type to its column type and kind (false when no
// column can store it).
func columnOf(t reflect.Type) (Type, fieldKind, bool) {
	// The interface types are resolved here, not held in package
	// variables: tables are declared at init, maybe before those are.
	ptr, k := reflect.PointerTo(t), t.Kind()
	switch {
	case ptr.Implements(reflect.TypeFor[encoding.TextMarshaler]()) &&
		ptr.Implements(reflect.TypeFor[encoding.TextUnmarshaler]()):
		return String, kindText, true
	case k == reflect.Int:
		return Int, kindInt, true
	case k == reflect.Int64:
		return Int, kindInt64, true
	case k == reflect.Float64:
		return Float, kindFloat, true
	case k == reflect.String:
		return String, kindString, true
	case k == reflect.Bool:
		return Bool, kindBool, true
	case k == reflect.Array && (t.Elem().Kind() == reflect.Int || t.Elem().Kind() == reflect.Int64):
		return String, kindInts, true
	}
	return 0, 0, false
}

// encode appends p's row to row, each column read from its field.
func (tt *TypedTable[T]) encode(row []Value, p *T) ([]Value, error) {
	n := len(row)
	row = slices.Grow(row, len(tt.fields))[:n+len(tt.fields)]
	for i := range tt.fields {
		f := &tt.fields[i]
		at := unsafe.Add(unsafe.Pointer(p), f.off)
		switch f.kind {
		case kindInt:
			row[n+i] = IntVal(int64(*(*int)(at)))
		case kindInt64:
			row[n+i] = IntVal(*(*int64)(at))
		case kindFloat:
			x := *(*float64)(at)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			row[n+i] = FloatVal(x)
		case kindString:
			row[n+i] = StringVal(*(*string)(at))
		case kindBool:
			row[n+i] = BoolVal(*(*bool)(at))
		case kindText:
			b, err := reflect.NewAt(f.typ, at).Interface().(encoding.TextMarshaler).MarshalText()
			if err != nil {
				return nil, fmt.Errorf("statsdb: table %s column %q: %w", tt.name, tt.schema[i].Name, err)
			}
			row[n+i] = StringVal(string(b))
		case kindInts:
			a := reflect.NewAt(f.typ, at).Elem()
			parts := make([]string, a.Len())
			for j := range parts {
				parts[j] = strconv.FormatInt(a.Index(j).Int(), 10)
			}
			row[n+i] = StringVal(strings.Join(parts, ","))
		}
	}
	return row, nil
}

// decode fills p's fields from row r of t, a table laid out as the
// declaration.
func (tt *TypedTable[T]) decode(t *Table, r int, p *T) error {
	for i := range tt.fields {
		f, c := &tt.fields[i], &t.cols[i]
		at := unsafe.Add(unsafe.Pointer(p), f.off)
		switch f.kind {
		case kindInt:
			*(*int)(at) = int(c.ints[r])
		case kindInt64:
			*(*int64)(at) = c.ints[r]
		case kindFloat:
			*(*float64)(at) = c.flts[r]
		case kindString:
			*(*string)(at) = c.strAt(r)
		case kindBool:
			*(*bool)(at) = c.codes[r] == 1
		case kindText:
			if err := reflect.NewAt(f.typ, at).Interface().(encoding.TextUnmarshaler).UnmarshalText([]byte(c.strAt(r))); err != nil {
				return fmt.Errorf("statsdb: table %s row %d column %q: %w", tt.name, r, tt.schema[i].Name, err)
			}
		case kindInts: // malformed or missing elements read as 0
			a := reflect.NewAt(f.typ, at).Elem()
			for j, part := range strings.Split(c.strAt(r), ",") {
				if x, err := strconv.ParseInt(part, 10, 64); err == nil && j < a.Len() {
					a.Index(j).SetInt(x)
				}
			}
		}
	}
	return nil
}

// declare returns the table in db, creating it and its indexes when db
// lacks it; a table laid out other than the declaration is an error.
func (tt *TypedTable[T]) declare(db *DB) (*Table, error) {
	return db.declare(tt.name, tt.schema, tt.indexes...)
}

// Insert appends rows to the table and returns it, creating the table and
// its indexes when db lacks it, even for no rows. A table laid out other
// than the declaration is an error, never a misaligned row. The rows go
// in as one batch, each encoded from its fields: Insert either adds
// every row or returns the error (a MarshalText failure, a value the
// table rejects) and leaves the table as it was.
func (tt *TypedTable[T]) Insert(db *DB, rows ...T) (*Table, error) {
	t, err := tt.declare(db)
	if err != nil {
		return nil, err
	}
	err = t.appendRows(len(rows), func(row []Value, r int) ([]Value, error) { return tt.encode(row, &rows[r]) })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Read returns the table's rows in table order, each column decoded into
// its field by position. A missing or empty table reads as nil; a table
// laid out other than the declaration is an error.
func (tt *TypedTable[T]) Read(db *DB) ([]T, error) {
	t := db.Table(tt.name)
	if t == nil {
		return nil, nil
	}
	if err := t.checkLayout(tt.schema); err != nil || t.n == 0 {
		return nil, err
	}
	out := make([]T, t.n)
	for r := range out {
		if err := tt.decode(t, r, &out[r]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
