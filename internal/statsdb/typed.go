package statsdb

import (
	"encoding"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// TypedTable declares a fixed-schema table by a struct type, so a struct
// tag is the single declaration of each column's name, type and order.
// Each field tagged `db:"name"` is one column, in field order; anonymous
// embedded structs are flattened in place and untagged fields are not
// stored. int and int64 store as INT, float64 as FLOAT, string as
// STRING, bool as BOOL; a TextMarshaler/TextUnmarshaler stores its text
// and a fixed int array its comma-joined elements, both as STRING.
//
// One NaN policy covers every table: non-finite floats persist as 0,
// since the engine rejects NaN (it breaks index hashing and ordering).
type TypedTable[T any] struct {
	name    string
	schema  Schema
	fields  []typedField // fields[i] backs schema[i]
	indexes []string
}

// typedField locates one column's struct field and converts it.
type typedField struct {
	path []int // field index through embedded structs
	get  func(f reflect.Value) (Value, error)
	set  func(f reflect.Value, v Value) error
}

// NewTypedTable declares table name over T's tagged fields, with a hash
// index on each named column. Declare tables at package level: it panics
// on a field type the mapping cannot store, so a bad declaration fails
// at init rather than on the first insert.
func NewTypedTable[T any](name string, indexes ...string) *TypedTable[T] {
	tt := &TypedTable[T]{name: name, indexes: indexes}
	tt.addFields(reflect.TypeFor[T](), nil)
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

func (tt *TypedTable[T]) addFields(rt reflect.Type, parent []int) {
	for i := 0; rt.Kind() == reflect.Struct && i < rt.NumField(); i++ {
		f := rt.Field(i)
		path := append(parent[:len(parent):len(parent)], i)
		col, tagged := f.Tag.Lookup("db")
		if !tagged {
			if f.Anonymous {
				tt.addFields(f.Type, path)
			}
			continue
		}
		typ, field := columnOf(f.Type)
		if field.get == nil || !f.IsExported() {
			panic(fmt.Sprintf("statsdb: table %s: column %q (field %s %s) cannot be stored", tt.name, col, f.Name, f.Type))
		}
		field.path = path
		tt.schema = append(tt.schema, Column{Name: col, Type: typ})
		tt.fields = append(tt.fields, field)
	}
}

// columnOf maps a field type to its column type and conversions (none
// when no column can store it).
func columnOf(t reflect.Type) (Type, typedField) {
	// The interface types are resolved here, not held in package
	// variables: tables are declared at init, maybe before those are.
	ptr, k := reflect.PointerTo(t), t.Kind()
	switch {
	case ptr.Implements(reflect.TypeFor[encoding.TextMarshaler]()) &&
		ptr.Implements(reflect.TypeFor[encoding.TextUnmarshaler]()):
		return String, typedField{
			get: func(f reflect.Value) (Value, error) {
				b, err := f.Addr().Interface().(encoding.TextMarshaler).MarshalText()
				return StringVal(string(b)), err
			},
			set: func(f reflect.Value, v Value) error {
				return f.Addr().Interface().(encoding.TextUnmarshaler).UnmarshalText([]byte(v.Str()))
			},
		}
	case k == reflect.Int || k == reflect.Int64:
		return Int, typedField{
			get: func(f reflect.Value) (Value, error) { return IntVal(f.Int()), nil },
			set: func(f reflect.Value, v Value) error { f.SetInt(v.Int()); return nil },
		}
	case k == reflect.Float64:
		return Float, typedField{
			get: func(f reflect.Value) (Value, error) {
				if x := f.Float(); !math.IsNaN(x) && !math.IsInf(x, 0) {
					return FloatVal(x), nil
				}
				return FloatVal(0), nil
			},
			set: func(f reflect.Value, v Value) error { f.SetFloat(v.Float()); return nil },
		}
	case k == reflect.String:
		return String, typedField{
			get: func(f reflect.Value) (Value, error) { return StringVal(f.String()), nil },
			set: func(f reflect.Value, v Value) error { f.SetString(v.Str()); return nil },
		}
	case k == reflect.Bool:
		return Bool, typedField{
			get: func(f reflect.Value) (Value, error) { return BoolVal(f.Bool()), nil },
			set: func(f reflect.Value, v Value) error { f.SetBool(v.Bool()); return nil },
		}
	case k == reflect.Array && (t.Elem().Kind() == reflect.Int || t.Elem().Kind() == reflect.Int64):
		return String, typedField{
			get: func(f reflect.Value) (Value, error) {
				parts := make([]string, f.Len())
				for j := range parts {
					parts[j] = strconv.FormatInt(f.Index(j).Int(), 10)
				}
				return StringVal(strings.Join(parts, ",")), nil
			},
			set: func(f reflect.Value, v Value) error { // malformed or missing elements read as 0
				for j, part := range strings.Split(v.Str(), ",") {
					if x, err := strconv.ParseInt(part, 10, 64); err == nil && j < f.Len() {
						f.Index(j).SetInt(x)
					}
				}
				return nil
			},
		}
	}
	return 0, typedField{}
}

// Create makes the table and its indexes; an existing table is left as
// it is. It runs inside the layer's versioned migration (TableMigration).
func (tt *TypedTable[T]) Create(db *DB) error {
	if db.Table(tt.name) != nil {
		return nil
	}
	t, err := db.CreateTable(tt.name, tt.schema)
	for _, col := range tt.indexes {
		if err == nil {
			err = t.CreateIndex(col)
		}
	}
	return err
}

// TableMigration is the versioned migration that creates a layer's
// typed tables: adding a table to the layer is one more argument.
func TableMigration(version int64, name string, tables ...interface{ Create(*DB) error }) Migration {
	return Migration{Version: version, Name: name, Apply: func(db *DB) error {
		for _, t := range tables {
			if err := t.Create(db); err != nil {
				return err
			}
		}
		return nil
	}}
}

// Insert appends rows to the table Create made and returns it. A table
// whose schema differs from the declaration is an error, never a
// misaligned row.
func (tt *TypedTable[T]) Insert(db *DB, rows ...T) (*Table, error) {
	t := db.Table(tt.name)
	if t == nil || !reflect.DeepEqual(t.schema, tt.schema) {
		return nil, fmt.Errorf("statsdb: table %s is missing or not of schema %v", tt.name, tt.schema)
	}
	row := make([]Value, len(tt.fields))
	for r := range rows {
		rv := reflect.ValueOf(&rows[r]).Elem()
		for i, f := range tt.fields {
			v, err := f.get(rv.FieldByIndex(f.path))
			if err != nil {
				return nil, fmt.Errorf("statsdb: table %s column %q: %w", tt.name, tt.schema[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Read returns the table's rows in table order, matching columns to
// fields by name: a declared column the table lacks reads as the zero
// value, and a missing or empty table reads as nil.
func (tt *TypedTable[T]) Read(db *DB) ([]T, error) {
	t := db.Table(tt.name)
	if t == nil || len(t.rows) == 0 {
		return nil, nil
	}
	src := make([]int, len(tt.fields))
	for i, c := range tt.schema {
		src[i] = t.schema.Index(c.Name)
	}
	out := make([]T, len(t.rows))
	for r, row := range t.rows {
		rv := reflect.ValueOf(&out[r]).Elem()
		for i, f := range tt.fields {
			if src[i] < 0 {
				continue
			}
			if err := f.set(rv.FieldByIndex(f.path), row[src[i]]); err != nil {
				return nil, fmt.Errorf("statsdb: table %s row %d column %q: %w", tt.name, r, tt.schema[i].Name, err)
			}
		}
	}
	return out, nil
}
