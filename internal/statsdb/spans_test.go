package statsdb

import (
	"math"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

func TestLoadSpansAnswersQueries(t *testing.T) {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	campaign := tr.Begin("campaign", "campaign-2005", "factory", 0)
	day := tr.Begin("day", "day-001", "factory", campaign)
	run := tr.Begin("run", "tillamook/1", "fnode01", day)
	tr.SetArg(run, "forecast", "tillamook")
	tr.SetArg(run, "day", "1")
	tr.SetArg(run, "node", "fnode01")
	clock = 100
	sim := tr.Begin("simulation", "sim:tillamook", "", run)
	clock = 40100
	tr.End(sim)
	tr.End(run)
	clock = 86400
	tr.End(day)
	tr.End(campaign)

	db := NewDB()
	tbl, err := LoadSpans(db, tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tbl.Len())
	}
	for _, col := range []string{"cat", "track"} {
		if !slices.Contains(tbl.IndexedColumns(), col) {
			t.Fatalf("column %s not indexed", col)
		}
	}

	// Span rows answer the monitoring questions of §4.3: how long did the
	// simulation phases on a node take?
	res, err := db.Query("SELECT MAX(duration) FROM spans WHERE cat = 'simulation' AND track = 'fnode01'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 40000 {
		t.Fatalf("rows = %v, want one row of 40000", res.Rows)
	}

	// Annotation lifting: forecast/day/node columns come from span args.
	res, err = db.Query("SELECT forecast, day, node FROM spans WHERE cat = 'run'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Str() != "tillamook" || row[1].Int() != 1 || row[2].Str() != "fnode01" {
		t.Fatalf("run row = %v", row)
	}
}

func TestLoadSpansInterruptedAndBadDay(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	tr.Begin("run", "r", "n", 0)
	tr.EndOpen() // closes the span with interrupted=true

	db := NewDB()
	if _, err := LoadSpans(db, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT name FROM spans WHERE interrupted = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "r" {
		t.Fatalf("rows = %v", res.Rows)
	}

	// A non-integer day annotation is a descriptive error, not a panic.
	bad := telemetry.NewTracer(nil)
	b := bad.Begin("run", "b", "n", 0)
	bad.SetArg(b, "day", "twenty")
	bad.End(b)
	before := cloneTable(db.Table(SpansTableName))
	if _, err := LoadSpans(db, bad.Spans()); err == nil {
		t.Fatal("expected error for non-integer day annotation")
	}
	if diff := diffTables(db.Table(SpansTableName), before); diff != "" {
		t.Fatalf("failed load changed the table: %s", diff)
	}

	// The same holds when the bad span comes after spans the load would
	// otherwise add (a batch) or update (known ids): none of them land.
	for _, spans := range [][]telemetry.Span{
		{{ID: 7, Cat: "run", Name: "new", Track: "n"}, {ID: 8, Cat: "run", Name: "b", Args: map[string]string{"day": "x"}}},
		{{ID: 1, Cat: "run", Name: "renamed", Track: "n"}, {ID: 9, Cat: "run", Name: "new", Track: "n"},
			{ID: 10, Cat: "run", Name: "nan", Start: math.NaN()}},
	} {
		if _, err := LoadSpans(db, spans); err == nil {
			t.Fatalf("load of %v succeeded", spans)
		}
		if diff := diffTables(db.Table(SpansTableName), before); diff != "" {
			t.Fatalf("failed load of %v changed the table: %s", spans, diff)
		}
	}
}

// TestLoadSpansIdempotent re-loads the same trace (plus a continuation)
// and checks rows update in place: the monitor-flush-then-final-flush
// sequence must not duplicate spans, and a load mixing known and new ids
// must leave what loading its spans one by one would.
func TestLoadSpansIdempotent(t *testing.T) {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	run := tr.Begin("run", "tillamook/1", "fnode01", 0)
	clock = 500

	db := NewDB()
	// First load: mid-campaign, the run span is still open (End = now).
	if _, err := LoadSpans(db, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	// Second load of the identical export: no new rows.
	tbl, err := LoadSpans(db, tr.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("after duplicate load Len = %d, want 1", tbl.Len())
	}
	if !slices.Contains(tbl.IndexedColumns(), "id") {
		t.Fatal("span id not indexed")
	}

	// The campaign continues; the final flush carries the finished span
	// and a new child. The old row is updated, the child inserted.
	sim := tr.Begin("simulation", "sim:tillamook", "", run)
	clock = 900
	tr.End(sim)
	tr.End(run)
	if _, err := LoadSpans(db, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("after final flush Len = %d, want 2", tbl.Len())
	}
	res, err := db.Query("SELECT duration FROM spans WHERE cat = 'run'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 900 {
		t.Fatalf("run duration after re-load = %v, want one row of 900", res.Rows)
	}

	// Loads that mix known ids with new ones must leave the table as one
	// call per span would: every row, code and index entry in place.
	// Cases: a trace and its continuation (known ids, then new ascending
	// ones), a repeated id late in the call, and a new id below one
	// already loaded.
	span := func(id int64, name string, end float64) telemetry.Span {
		return telemetry.Span{ID: id, Parent: id / 2, Cat: "product", Name: name, Track: "fnode0" + name[:1], End: end}
	}
	first := []telemetry.Span{span(1, "1a", 10), span(2, "2b", 20), span(3, "3c", 30)}
	for name, next := range map[string][]telemetry.Span{
		"continuation":    {span(2, "2b", 25), span(3, "3d", 35), span(4, "4e", 40), span(5, "5a", 50)},
		"late repeat":     {span(4, "4e", 40), span(5, "5f", 50), span(6, "6g", 60), span(5, "5h", 55), span(7, "7a", 70)},
		"new id below":    {span(9, "9a", 90), span(8, "8b", 80), span(10, "1c", 100)},
		"known ids alone": {span(3, "3x", 33), span(1, "1y", 11)},
	} {
		batched, single := NewDB(), NewDB()
		for _, spans := range [][]telemetry.Span{first, next} {
			if _, err := LoadSpans(batched, spans); err != nil {
				t.Fatal(err)
			}
			for _, s := range spans {
				if _, err := LoadSpans(single, []telemetry.Span{s}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if diff := diffTables(batched.Table(SpansTableName), single.Table(SpansTableName)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}
