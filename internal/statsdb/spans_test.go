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

// TestLoadSpansAppendsOneTrace checks that a load appends spans whose
// ids ascend above every id already in the table, and refuses any other
// span (a reloaded trace, a repeated id, an id below one loaded) with an
// error, leaving the table as it was.
func TestLoadSpansAppendsOneTrace(t *testing.T) {
	span := func(id int64, name string, end float64) telemetry.Span {
		return telemetry.Span{ID: id, Parent: id / 2, Cat: "product", Name: name, Track: "fnode0" + name[:1], End: end}
	}
	first := []telemetry.Span{span(1, "1a", 10), span(2, "2b", 20), span(3, "3c", 30)}
	db := NewDB()
	if _, err := LoadSpans(db, first); err != nil {
		t.Fatal(err)
	}
	tbl, err := LoadSpans(db, []telemetry.Span{span(4, "4d", 40), span(6, "6e", 60)})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 5 || !slices.Contains(tbl.IndexedColumns(), "id") {
		t.Fatalf("after the continuation: %d rows, indexes %v", tbl.Len(), tbl.IndexedColumns())
	}
	before := cloneTable(tbl)
	for name, spans := range map[string][]telemetry.Span{
		"reloaded trace": first,
		"known id":       {span(7, "7a", 70), span(6, "6f", 65)},
		"repeated id":    {span(7, "7a", 70), span(8, "8b", 80), span(8, "8c", 85)},
		"id below":       {span(5, "5a", 50)},
		"descending ids": {span(10, "1a", 100), span(9, "9b", 90)},
	} {
		if _, err := LoadSpans(db, spans); err == nil {
			t.Errorf("%s: load succeeded", name)
		}
		if diff := diffTables(db.Table(SpansTableName), before); diff != "" {
			t.Errorf("%s: the refused load changed the table: %s", name, diff)
		}
	}
}
