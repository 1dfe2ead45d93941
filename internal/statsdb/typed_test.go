package statsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// level is a TextMarshaler stored as its name.
type level int

func (l level) MarshalText() ([]byte, error) {
	if l < 0 || l > 1 {
		return nil, fmt.Errorf("level %d has no name", int(l))
	}
	return []byte([]string{"low", "high"}[l]), nil
}

func (l *level) UnmarshalText(b []byte) error {
	*l = 0
	if string(b) == "high" {
		*l = 1
	}
	return nil
}

type typedPoint struct {
	Seq   int     `db:"seq"`
	Value float64 `db:"value"`
	Note  string  // untagged: not stored
}

type typedRow struct {
	Kind string `db:"kind"`
	typedPoint
	Level level    `db:"level"`
	Hist  [3]int64 `db:"hist"`
	OK    bool     `db:"ok"`
	N     int64    `db:"n"`
}

var typedRows = NewTypedTable[typedRow]("typed", "kind")

func TestTypedTableSchemaFlattensEmbedded(t *testing.T) {
	db := NewDB()
	tbl, err := typedRows.Insert(db)
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{
		{"kind", String}, {"seq", Int}, {"value", Float},
		{"level", String}, {"hist", String}, {"ok", Bool}, {"n", Int},
	}
	if got := tbl.Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("schema = %v, want %v", got, want)
	}
	if got := tbl.IndexedColumns(); !reflect.DeepEqual(got, []string{"kind"}) {
		t.Fatalf("indexes = %v", got)
	}
}

func TestTypedTableRoundTrip(t *testing.T) {
	db := NewDB()
	rows := []typedRow{
		{Kind: "a", typedPoint: typedPoint{Seq: 1, Value: 2.5, Note: "dropped"}, Level: 1, Hist: [3]int64{4, 0, 7}, OK: true, N: -3},
		{Kind: "b", typedPoint: typedPoint{Seq: 2, Value: -1}},
	}
	tbl, err := typedRows.Insert(db, rows...)
	if err != nil {
		t.Fatal(err)
	}
	// Stored forms: text marshaler by its text, int arrays comma-joined.
	r0 := tbl.Row(0)
	if r0[3].Str() != "high" || r0[4].Str() != "4,0,7" {
		t.Fatalf("stored row = %v", r0)
	}
	if ids := tbl.lookupRows(nil, tbl.schema.Index("kind"), StringVal("b")); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("index probe for kind=b = %v", ids)
	}
	got, err := typedRows.Read(db)
	if err != nil {
		t.Fatal(err)
	}
	rows[0].Note = "" // untagged fields are not stored
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("read back %+v, want %+v", got, rows)
	}
}

func TestTypedTableNonFiniteFloatsPersistAsZero(t *testing.T) {
	db := NewDB()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := typedRows.Insert(db, typedRow{typedPoint: typedPoint{Value: v}}); err != nil {
			t.Fatalf("insert %v: %v", v, err)
		}
	}
	got, err := typedRows.Read(db)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Value != 0 {
			t.Errorf("row %d value = %v, want 0", i, r.Value)
		}
	}
}

// TestTypedTableInsertIsWhole checks that an Insert whose row fails to
// convert (here a MarshalText error) adds none of its rows.
func TestTypedTableInsertIsWhole(t *testing.T) {
	db := NewDB()
	if _, err := typedRows.Insert(db, typedRow{Kind: "a"}); err != nil {
		t.Fatal(err)
	}
	before := cloneTable(db.Table("typed"))
	_, err := typedRows.Insert(db, typedRow{Kind: "b"}, typedRow{Kind: "c", Level: 7}, typedRow{Kind: "d"})
	if err == nil || !strings.Contains(err.Error(), "level 7 has no name") {
		t.Fatalf("Insert error = %v, want the MarshalText failure", err)
	}
	if diff := diffTables(db.Table("typed"), before); diff != "" {
		t.Fatalf("failed Insert changed the table: %s", diff)
	}
}

// TestTypedTableRefusesOtherLayouts checks that a table laid out other
// than its declaration is an error to Read and to Insert into, never
// read into the wrong fields or written as a misaligned row.
func TestTypedTableRefusesOtherLayouts(t *testing.T) {
	declared := typedRows.schema
	reordered := append(Schema{declared[1], declared[0]}, declared[2:]...)
	retyped := append(Schema{{"kind", Int}}, declared[1:]...)
	for name, schema := range map[string]Schema{
		"older":     {{"extra", Int}, {"value", Float}, {"kind", String}, {"seq", Int}, {"ok", Bool}, {"hist", String}},
		"reordered": reordered,
		"retyped":   retyped,
		"narrower":  declared[:len(declared)-1],
		"wider":     append(declared[:len(declared):len(declared)], Column{"extra", Int}),
	} {
		db := NewDB()
		tbl, err := db.CreateTable("typed", schema)
		if err != nil {
			t.Fatal(err)
		}
		row := genRow(rand.New(rand.NewSource(1)), schema)
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		if got, err := typedRows.Read(db); err == nil {
			t.Errorf("%s table: Read returned %+v", name, got)
		}
		if _, err := typedRows.Insert(db, typedRow{Kind: "k"}); err == nil {
			t.Errorf("%s table: Insert succeeded", name)
		}
		if tbl.Len() != 1 {
			t.Errorf("%s table: the refused Insert left %d rows", name, tbl.Len())
		}
	}
}

// TestTypedTableMissingOrEmptyTableReadsNil checks that a table reads as
// nil before its first Insert and while empty, and that a first Insert of
// no rows creates it with its indexes.
func TestTypedTableMissingOrEmptyTableReadsNil(t *testing.T) {
	db := NewDB()
	if got, err := typedRows.Read(db); got != nil || err != nil {
		t.Fatalf("missing table read = %v, %v", got, err)
	}
	tbl, err := typedRows.Insert(db)
	if err != nil {
		t.Fatal(err)
	}
	if db.Table("typed") != tbl || tbl.Len() != 0 || !reflect.DeepEqual(tbl.IndexedColumns(), []string{"kind"}) {
		t.Fatalf("first Insert made %v with %d rows, indexes %v", db.TableNames(), tbl.Len(), tbl.IndexedColumns())
	}
	if got, err := typedRows.Read(db); got != nil || err != nil {
		t.Fatalf("empty table read = %v, %v", got, err)
	}
}

func TestTypedTableRejectsUnsupportedDeclarations(t *testing.T) {
	cases := map[string]func(){
		"unsigned field": func() {
			NewTypedTable[struct {
				N uint `db:"n"`
			}]("bad")
		},
		"slice field": func() {
			NewTypedTable[struct {
				S []int `db:"s"`
			}]("bad")
		},
		"unexported field": func() {
			NewTypedTable[struct {
				s string `db:"s"`
			}]("bad")
		},
		"duplicate column": func() {
			NewTypedTable[struct {
				A int `db:"x"`
				B int `db:"x"`
			}]("bad")
		},
		"unknown index": func() {
			NewTypedTable[struct {
				A int `db:"a"`
			}]("bad", "b")
		},
		"no columns": func() { NewTypedTable[struct{ A int }]("bad") },
	}
	for name, declare := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("declaration did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "statsdb") {
					t.Fatalf("panic %v does not name the package", r)
				}
			}()
			declare()
		})
	}
}
