package statsdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/logs"
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

// grade is a TextMarshaler over an int8, a kind no column stores by
// itself: MarshalText fails on a grade without a name, and UnmarshalText
// on a name it does not know.
type grade int8

var gradeNames = []string{"a", "b", "c"}

func (g grade) MarshalText() ([]byte, error) {
	if g < 0 || int(g) >= len(gradeNames) {
		return nil, fmt.Errorf("grade %d has no name", int(g))
	}
	return []byte(gradeNames[g]), nil
}

func (g *grade) UnmarshalText(b []byte) error {
	i := slices.Index(gradeNames, string(b))
	if i < 0 {
		return fmt.Errorf("unknown grade %q", b)
	}
	*g = grade(i)
	return nil
}

// codecRow, with codecMid and codecInner embedded in it, covers every
// column kind, tagged fields embedded two deep at non-zero offsets, and
// untagged fields before, between and after tagged ones.
type codecInner struct {
	Skip  string // untagged
	Seq   int    `db:"seq"`
	Note  [2]byte
	Score float64 `db:"score"`
}

type codecMid struct {
	Flag bool `db:"flag"`
	codecInner
	Hist [3]int `db:"hist"`
}

type codecRow struct {
	Pad  byte
	Name string `db:"name"`
	Big  int64  `db:"big"`
	codecMid
	Grade  grade `db:"grade"`
	Hidden int
	Wide   [2]int64 `db:"wide"`
	On     bool     `db:"on"`
}

var (
	codecRows    = NewTypedTable[codecRow]("codec", "name", "grade")
	codecRowsRef = newReferenceTypedTable[codecRow]("codec", "name", "grade")
	runsRef      = newReferenceTypedTable[logs.RunRecord](RunsTableName, "forecast", "code_version", "node")
)

// TestTypedTableMatchesReference holds the offset codec to the
// reflection codec it replaced over seeded rows: the same declarations,
// the same errors, the same tables (rows, dictionary codes, index lists)
// and the same rows read back, for codecRow and logs.RunRecord.
func TestTypedTableMatchesReference(t *testing.T) {
	if !reflect.DeepEqual(codecRows.schema, codecRowsRef.schema) {
		t.Fatalf("codec layout %v, reference %v", codecRows.schema, codecRowsRef.schema)
	}
	if !reflect.DeepEqual(runsTable.schema, runsRef.schema) {
		t.Fatalf("runs layout %v, reference %v", runsTable.schema, runsRef.schema)
	}
	for seed := int64(1); seed <= 300; seed++ {
		data := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := checkCodec(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzTypedTableMatchesReference runs TestTypedTableMatchesReference's
// comparison on rows drawn from the fuzzer's bytes.
func FuzzTypedTableMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04\x03\x07\x01\x02\x08\x06\x05\x00\x0f\x0e"))
	f.Add(bytes.Repeat([]byte{3, 9, 1, 6, 0, 15, 2, 7, 4}, 60))
	f.Add(bytes.Repeat([]byte{255, 1, 8, 2, 14, 3}, 90))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkCodec(data); err != nil {
			t.Fatal(err)
		}
	})
}

// checkCodec draws batches of rows from data and inserts each into twin
// databases, one through the codec and one through the reference,
// comparing errors and tables after each. It then reads the tables back
// both ways, and reads a table of drawn raw rows (unknown grade names,
// malformed int-array text) both ways.
func checkCodec(data []byte) error {
	d := draws(data)
	ints := []int64{0, 1, -1, 42, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e-300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "a", "b", "ä", "日本語", "it's", "1,2"}
	texts := []string{"", "a", "c", "d", "1", "1,2,3", "1,2,3,4", "x,2", ",,", "-5,+6", "9223372036854775808,1", " 1"}
	str := func() string { return strs[d.n(len(strs))] }
	i64 := func() int64 { return ints[d.n(len(ints))] }
	f64 := func() float64 { return floats[d.n(len(floats))] }
	drawRow := func() codecRow {
		g := grade(d.n(16))
		if g < 15 {
			g %= 3 // one row in 16 has a grade MarshalText refuses
		}
		return codecRow{
			Pad: byte(d.n(256)), Name: str(), Big: i64(),
			codecMid: codecMid{
				Flag:       d.n(2) == 1,
				codecInner: codecInner{Skip: str(), Seq: int(i64()), Note: [2]byte{byte(d.n(256)), 1}, Score: f64()},
				Hist:       [3]int{int(i64()), int(i64()), int(i64())},
			},
			Grade: g, Hidden: int(i64()), Wide: [2]int64{i64(), i64()}, On: d.n(2) == 1,
		}
	}
	drawRecord := func() logs.RunRecord {
		return logs.RunRecord{
			Forecast: str(), Region: str(), Year: int(i64()), Day: int(i64()), Node: str(), CodeVersion: str(),
			CodeFactor: f64(), MeshName: str(), MeshSides: int(i64()), Timesteps: int(i64()), Start: f64(), End: f64(),
			Walltime: f64(), Status: str(), Products: int(i64()), HarvestedAt: f64(), SourcePath: str(),
		}
	}
	dbA, dbB := NewDB(), NewDB()
	for batch := 1 + d.n(5); batch > 0; batch-- {
		rows, recs := make([]codecRow, d.n(12)), make([]logs.RunRecord, d.n(6))
		for i := range rows {
			rows[i] = drawRow()
		}
		for i := range recs {
			recs[i] = drawRecord()
		}
		if err := sameInsert(codecRows.Insert, codecRowsRef.Insert, dbA, dbB, rows); err != nil {
			return err
		}
		if err := sameInsert(runsTable.Insert, runsRef.Insert, dbA, dbB, recs); err != nil {
			return err
		}
	}
	if err := sameRead(codecRows.Read, codecRowsRef.Read, dbA); err != nil {
		return err
	}
	if err := sameRead(runsTable.Read, runsRef.Read, dbA); err != nil {
		return err
	}

	raw := NewDB()
	tbl, err := raw.CreateTable("codec", codecRows.schema)
	if err != nil {
		return err
	}
	for r := d.n(8); r > 0; r-- {
		row := make([]Value, len(codecRows.schema))
		for i, c := range codecRows.schema {
			switch {
			case c.Type == Int:
				row[i] = IntVal(i64())
			case c.Type == Float:
				row[i] = FloatVal(floats[d.n(6)]) // finite: the table refuses NaN
			case c.Type == Bool:
				row[i] = BoolVal(d.n(2) == 1)
			case c.Name == "grade" && d.n(16) < 15: // else a name UnmarshalText refuses
				row[i] = StringVal(gradeNames[d.n(len(gradeNames))])
			default:
				row[i] = StringVal(texts[d.n(len(texts))])
			}
		}
		if err := tbl.Insert(row); err != nil {
			return err
		}
	}
	return sameRead(codecRows.Read, codecRowsRef.Read, raw)
}

// sameInsert inserts rows into dbA by insert and into dbB by ref, and
// describes the first difference in their errors or tables.
func sameInsert[T any](insert, ref func(*DB, ...T) (*Table, error), dbA, dbB *DB, rows []T) error {
	a, errA := insert(dbA, rows...)
	b, errB := ref(dbB, rows...)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		return fmt.Errorf("Insert of %+v: error %v, reference %v", rows, errA, errB)
	}
	if a == nil {
		return nil
	}
	if diff := diffTables(a, b); diff != "" {
		return fmt.Errorf("Insert of %+v: %s", rows, diff)
	}
	return nil
}

// sameRead reads db by read and by ref, and describes the first
// difference in their errors or rows, floats compared bit for bit.
func sameRead[T any](read, ref func(*DB) ([]T, error), db *DB) error {
	a, errA := read(db)
	b, errB := ref(db)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		return fmt.Errorf("Read: error %v, reference %v", errA, errB)
	}
	if ga, gb := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b); ga != gb {
		return fmt.Errorf("Read:\n%s\nreference\n%s", ga, gb)
	}
	return nil
}
