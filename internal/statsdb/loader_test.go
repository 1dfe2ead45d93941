package statsdb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/logs"
	"repro/internal/telemetry"
)

func rec(forecast string, day int, wall float64, code string) *logs.RunRecord {
	return &logs.RunRecord{
		Forecast:    forecast,
		Region:      "r",
		Year:        2005,
		Day:         day,
		Node:        "fnode01",
		CodeVersion: code,
		CodeFactor:  1,
		MeshName:    "m",
		MeshSides:   30000,
		Timesteps:   5760,
		Start:       0,
		End:         wall,
		Walltime:    wall,
		Status:      logs.StatusCompleted,
		Products:    8,
	}
}

func TestLoadRunsCreatesIndexedTable(t *testing.T) {
	db := NewDB()
	tbl, err := LoadRuns(db, []*logs.RunRecord{
		rec("tillamook", 1, 40000, "v1"),
		rec("tillamook", 2, 40100, "v1"),
		rec("dev", 1, 32000, "v2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for _, col := range []string{"forecast", "code_version", "node"} {
		if !slices.Contains(tbl.IndexedColumns(), col) {
			t.Fatalf("column %s not indexed", col)
		}
	}
	// The paper's query works end to end over loaded data.
	res, err := db.Query("SELECT forecast FROM runs WHERE code_version = 'v1' GROUP BY forecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "tillamook" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLoadRunsAppendsToExistingTable(t *testing.T) {
	db := NewDB()
	if _, err := LoadRuns(db, []*logs.RunRecord{rec("a", 1, 100, "v")}); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadRuns(db, []*logs.RunRecord{rec("a", 2, 110, "v")})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d after second load", tbl.Len())
	}
}

func TestLoadRunsIsIdempotent(t *testing.T) {
	// Loading the same records twice must not duplicate rows — the
	// harvester re-reads logs after a crash and relies on this.
	db := NewDB()
	recs := []*logs.RunRecord{rec("a", 1, 100, "v"), rec("a", 2, 110, "v")}
	if _, err := LoadRuns(db, recs); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadRuns(db, recs)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d after double load", tbl.Len())
	}
}

func TestUpsertRunsReplacesByKey(t *testing.T) {
	db := NewDB()
	running := rec("a", 1, 0, "v")
	running.Status = logs.StatusRunning
	running.End, running.Walltime = 0, 0
	if _, st, err := UpsertRuns(db, []*logs.RunRecord{running}); err != nil {
		t.Fatal(err)
	} else if st.Inserted != 1 || st.Updated != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The completed record for the same (forecast, day, start) replaces
	// the provisional running row.
	done := rec("a", 1, 4000, "v")
	tbl, st, err := UpsertRuns(db, []*logs.RunRecord{done})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != 0 || st.Updated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	si := tbl.Schema().Index("status")
	if got := tbl.Row(0)[si].Str(); got != logs.StatusCompleted {
		t.Fatalf("status = %q", got)
	}
	// A different start is a different execution, not a replacement.
	rerun := rec("a", 1, 4100, "v")
	rerun.Start = 7200
	if tbl, _, err = UpsertRuns(db, []*logs.RunRecord{rerun}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d after re-run", tbl.Len())
	}
}

func TestUpsertRunsFillsProvenanceColumns(t *testing.T) {
	db := NewDB()
	tbl, err := EnsureRunsTable(db)
	if err != nil {
		t.Fatal(err)
	}
	r := rec("a", 1, 100, "v")
	r.SourcePath = "/runs/a/2005-001/run.log"
	r.HarvestedAt = 42
	if _, _, err := UpsertRuns(db, []*logs.RunRecord{r}); err != nil {
		t.Fatal(err)
	}
	sch := tbl.Schema()
	row := tbl.Row(0)
	if got := row[sch.Index(ColHarvestedAt)].Float(); got != 42 {
		t.Fatalf("harvested_at = %v", got)
	}
	if got := row[sch.Index(ColSourcePath)].Str(); got != r.SourcePath {
		t.Fatalf("source_path = %q", got)
	}

	back, err := ReadRuns(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].SourcePath != r.SourcePath || back[0].HarvestedAt != 42 || back[0].Walltime != 100 {
		t.Fatalf("ReadRuns = %+v", back[0])
	}
}

// TestReadRunsAcrossSchemas round-trips records field by field through
// the runs table's one layout, and checks that a runs table laid out
// otherwise is refused by every reader and writer of it: UpsertRuns
// writes no zero-filled row into it, and ReadRuns neither zero-fills its
// records nor reads them in row order.
func TestReadRunsAcrossSchemas(t *testing.T) {
	layout := runsLayout(t)
	without := func(names ...string) Schema {
		return slices.DeleteFunc(slices.Clone(layout), func(c Column) bool { return slices.Contains(names, c.Name) })
	}
	cases := []struct {
		name   string
		schema Schema // the table's layout; nil for EnsureRunsTable's
	}{
		{"base schema", without(ColHarvestedAt, ColSourcePath)},
		{"one layout", nil},
		{"without the year column", without("year")},
		{"with an unknown column", append(slices.Clone(layout), Column{Name: "operator_note", Type: Int})},
	}
	done := &logs.RunRecord{
		Forecast: "tillamook", Region: "columbia", Year: 2005, Day: 42, Node: "fnode03",
		CodeVersion: "elcirc-5.01", CodeFactor: 1.1, MeshName: "m2", MeshSides: 31000,
		Timesteps: 5760, Start: 3600.5, End: 43600.25, Walltime: 39999.75,
		Status: logs.StatusCompleted, Products: 8, HarvestedAt: 42, SourcePath: "/runs/tillamook/2005-042/run.log",
	}
	running := &logs.RunRecord{
		Forecast: "dev", Region: "r", Year: 2006, Day: 1, Node: "fnode01", CodeVersion: "v2",
		CodeFactor: 0.9, MeshName: "m", MeshSides: 12000, Timesteps: 2880, Start: 7200,
		Status: logs.StatusRunning, HarvestedAt: 42, SourcePath: "/runs/dev/2006-001/run.log",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			if c.schema == nil {
				if _, _, err := UpsertRuns(db, []*logs.RunRecord{done, running}); err != nil {
					t.Fatal(err)
				}
				back, err := ReadRuns(db)
				if err != nil {
					t.Fatal(err)
				}
				// ReadRuns orders by (forecast, year, day): dev before tillamook.
				want := []logs.RunRecord{*running, *done}
				if len(back) != len(want) {
					t.Fatalf("ReadRuns returned %d records, want %d", len(back), len(want))
				}
				for i := range want {
					if *back[i] != want[i] {
						t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, *back[i], want[i])
					}
				}
				return
			}
			// The table holds the record's row, each of its columns
			// filled by name from the record's row in the one layout.
			ref := NewDB()
			refTbl, _, err := UpsertRuns(ref, []*logs.RunRecord{done})
			if err != nil {
				t.Fatal(err)
			}
			var row []Value
			for _, col := range c.schema {
				if i := layout.Index(col.Name); i >= 0 {
					row = append(row, refTbl.Row(0)[i])
				} else {
					row = append(row, IntVal(0))
				}
			}
			tbl, err := db.CreateTable(RunsTableName, c.schema)
			if err == nil {
				err = tbl.Insert(row)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := EnsureRunsTable(db); err == nil {
				t.Error("EnsureRunsTable accepted the table")
			}
			if _, err := LoadRuns(db, []*logs.RunRecord{running}); err == nil {
				t.Error("LoadRuns accepted the table")
			}
			if _, _, err := UpsertRuns(db, []*logs.RunRecord{done, running}); err == nil {
				t.Error("UpsertRuns accepted the table")
			}
			if back, err := ReadRuns(db); err == nil {
				t.Errorf("ReadRuns read the table as %+v", back)
			}
			if tbl.Len() != 1 || !slices.Equal(tbl.Row(0), row) {
				t.Errorf("the refused writes changed the table: %d rows, row 0 = %v", tbl.Len(), tbl.Row(0))
			}
		})
	}
}

// TestReadRunsOrder checks ReadRuns against the table's rows in row
// order, stable-sorted by (forecast, year, day), on random tables:
// forecasts inserted out of name order, reruns that tie on all three
// keys at distinct starts, and rows updated in place (which keeps their
// row).
func TestReadRunsOrder(t *testing.T) {
	names := []string{"tillamook", "dev", "a", "columbia-2", "b", "zz", "columbia", "dev-old"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		// rows mirrors the table in row order: an upsert keyed on
		// (forecast, day, start) replaces its row or appends one.
		var rows []logs.RunRecord
		for n := 5 + rng.Intn(300); n > 0; n-- {
			r := *rec(names[rng.Intn(len(names))], 1+rng.Intn(20), float64(1+rng.Intn(9000)), "v1")
			r.Year = 2004 + rng.Intn(3)
			r.Start = float64(rng.Intn(3)) // ties on (forecast, year, day) at distinct starts
			r.SourcePath = fmt.Sprintf("/runs/%s/%d-%03d/run.log", r.Forecast, r.Year, r.Day)
			if _, _, err := UpsertRuns(db, []*logs.RunRecord{&r}); err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(rows, func(x logs.RunRecord) bool {
				return x.Forecast == r.Forecast && x.Day == r.Day && x.Start == r.Start
			})
			if i < 0 {
				rows = append(rows, r)
			} else {
				rows[i] = r
			}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b logs.RunRecord) int {
			return cmp.Or(strings.Compare(a.Forecast, b.Forecast), cmp.Compare(a.Year, b.Year), cmp.Compare(a.Day, b.Day))
		})
		got, err := ReadRuns(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: ReadRuns returned %d records, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if *got[i] != want[i] {
				t.Fatalf("seed %d: record %d:\ngot  %+v\nwant %+v", seed, i, *got[i], want[i])
			}
		}
	}
}

func TestLoadRunsRejectsInvalidRecords(t *testing.T) {
	db := NewDB()
	bad := rec("a", 1, 100, "v")
	bad.Day = 0
	if _, err := LoadRuns(db, []*logs.RunRecord{bad}); err == nil {
		t.Fatal("invalid record accepted")
	}
}

// runsLayout is the runs table's layout, as EnsureRunsTable creates it.
func runsLayout(tb testing.TB) Schema {
	tb.Helper()
	t, err := EnsureRunsTable(NewDB())
	if err != nil {
		tb.Fatal(err)
	}
	return t.Schema()
}

// TestNonFiniteInputsAreRefused checks that a NaN or ±Inf in a run
// record's float fields, or in a span's start or end, is refused where
// the record or trace enters the database (Validate, UpsertRuns,
// LoadSpans), leaving the table as it was, never stored as the 0 a
// typed table persists a non-finite float as.
func TestNonFiniteInputsAreRefused(t *testing.T) {
	fields := map[string]func(r *logs.RunRecord) *float64{
		"code_factor": func(r *logs.RunRecord) *float64 { return &r.CodeFactor },
		"start":       func(r *logs.RunRecord) *float64 { return &r.Start },
		"end":         func(r *logs.RunRecord) *float64 { return &r.End },
		"walltime":    func(r *logs.RunRecord) *float64 { return &r.Walltime },
	}
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	for field, at := range fields {
		for name, x := range bad {
			t.Run("runs "+field+" "+name, func(t *testing.T) {
				db := NewDB()
				if _, err := LoadRuns(db, []*logs.RunRecord{rec("a", 1, 100, "v")}); err != nil {
					t.Fatal(err)
				}
				before := cloneTable(db.Table(RunsTableName))
				r := rec("a", 2, 100, "v")
				*at(r) = x
				if err := r.Validate(); err == nil {
					t.Error("Validate accepted the record")
				}
				if _, _, err := UpsertRuns(db, []*logs.RunRecord{r}); err == nil {
					t.Error("UpsertRuns accepted the record")
				}
				if diff := diffTables(db.Table(RunsTableName), before); diff != "" {
					t.Errorf("the refused upsert changed the table: %s", diff)
				}
			})
		}
	}
	for _, field := range []string{"start", "end"} {
		for name, x := range bad {
			t.Run("spans "+field+" "+name, func(t *testing.T) {
				db := NewDB()
				if _, err := LoadSpans(db, []telemetry.Span{{ID: 1, Cat: "run", Name: "r", End: 5}}); err != nil {
					t.Fatal(err)
				}
				before := cloneTable(db.Table(SpansTableName))
				s := telemetry.Span{ID: 3, Cat: "run", Name: "bad", Start: 1, End: 2}
				if field == "start" {
					s.Start = x
				} else {
					s.End = x
				}
				if _, err := LoadSpans(db, []telemetry.Span{{ID: 2, Cat: "run", Name: "ok", End: 1}, s}); err == nil {
					t.Error("LoadSpans accepted the span")
				}
				if diff := diffTables(db.Table(SpansTableName), before); diff != "" {
					t.Errorf("the refused load changed the table: %s", diff)
				}
			})
		}
	}
}

// TestUpsertRunsAddsEveryRecordOrNone checks that a call whose last
// record is refused writes none of the records before it: not the row it
// would update, not the row it would add.
func TestUpsertRunsAddsEveryRecordOrNone(t *testing.T) {
	for name, upsert := range map[string]func(db *DB, records []*logs.RunRecord) error{
		"UpsertRuns": func(db *DB, records []*logs.RunRecord) error { _, _, err := UpsertRuns(db, records); return err },
		"LoadRuns":   func(db *DB, records []*logs.RunRecord) error { _, err := LoadRuns(db, records); return err },
	} {
		db := NewDB()
		if _, err := LoadRuns(db, []*logs.RunRecord{rec("a", 1, 100, "v1")}); err != nil {
			t.Fatal(err)
		}
		before := cloneTable(db.Table(RunsTableName))
		bad := rec("a", 3, 100, "v1")
		bad.Start = math.NaN()
		if err := upsert(db, []*logs.RunRecord{rec("a", 1, 100, "v2"), rec("a", 2, 100, "v1"), bad}); err == nil {
			t.Errorf("%s accepted a record with a NaN start", name)
		}
		if diff := diffTables(db.Table(RunsTableName), before); diff != "" {
			t.Errorf("%s: the refused call changed the table: %s", name, diff)
		}
	}
}
