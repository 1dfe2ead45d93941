package statsdb

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// level is a TextMarshaler stored as its name.
type level int

func (l level) MarshalText() ([]byte, error) {
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
	if err := typedRows.Create(db); err != nil {
		t.Fatal(err)
	}
	if err := typedRows.Create(db); err != nil {
		t.Fatalf("second Create: %v", err)
	}
	tbl := db.Table("typed")
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
	if err := typedRows.Create(db); err != nil {
		t.Fatal(err)
	}
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
	if ids := tbl.lookupRows("kind", StringVal("b")); len(ids) != 1 || ids[0] != 1 {
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
	if err := typedRows.Create(db); err != nil {
		t.Fatal(err)
	}
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

func TestTypedTableReadMatchesColumnsByName(t *testing.T) {
	db := NewDB()
	// An older table: columns reordered, "level" and "n" absent, one
	// extra column the declaration does not know.
	tbl, err := db.CreateTable("typed", Schema{
		{"extra", Int}, {"value", Float}, {"kind", String}, {"seq", Int},
		{"ok", Bool}, {"hist", String},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntVal(9), FloatVal(1.5), StringVal("k"), IntVal(4), BoolVal(true), StringVal("1,x")}); err != nil {
		t.Fatal(err)
	}
	got, err := typedRows.Read(db)
	if err != nil {
		t.Fatal(err)
	}
	want := []typedRow{{Kind: "k", typedPoint: typedPoint{Seq: 4, Value: 1.5}, OK: true, Hist: [3]int64{1, 0, 0}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	// Inserting through a declaration that no longer matches is an
	// error, never a misaligned row.
	if _, err := typedRows.Insert(db, typedRow{}); err == nil {
		t.Fatal("insert into a mismatched table succeeded")
	}
}

func TestTypedTableMissingOrEmptyTableReadsNil(t *testing.T) {
	db := NewDB()
	if got, err := typedRows.Read(db); got != nil || err != nil {
		t.Fatalf("missing table read = %v, %v", got, err)
	}
	if _, err := typedRows.Insert(db, typedRow{}); err == nil {
		t.Fatal("insert before Create succeeded")
	}
	if err := typedRows.Create(db); err != nil {
		t.Fatal(err)
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
