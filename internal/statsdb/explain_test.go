package statsdb

import (
	"strings"
	"testing"
)

func TestExplainChoosesIndexProbe(t *testing.T) {
	tbl := runsFixture(t)
	if err := tbl.CreateIndex("forecast"); err != nil {
		t.Fatal(err)
	}
	plan, err := Select(tbl).Where(Pred{"forecast", OpEq, StringVal("dev")}).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index probe on runs.forecast") {
		t.Fatalf("plan = %q, want index probe", plan)
	}
}

func TestExplainFallsBackToScan(t *testing.T) {
	tbl := runsFixture(t)
	// No index, and range predicates cannot use a hash index anyway.
	plan, err := Select(tbl).Where(Pred{"walltime", OpGt, FloatVal(40000)}).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "full scan of runs") {
		t.Fatalf("plan = %q, want full scan", plan)
	}
	if !strings.Contains(plan, "filter 1 predicate") {
		t.Fatalf("plan = %q, want filter stage", plan)
	}
}

func TestExplainRangePredicateOnIndexedColumnScans(t *testing.T) {
	tbl := runsFixture(t)
	if err := tbl.CreateIndex("day"); err != nil {
		t.Fatal(err)
	}
	plan, err := Select(tbl).Where(Pred{"day", OpGt, IntVal(1)}).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "full scan") {
		t.Fatalf("plan = %q; hash index is useless for ranges", plan)
	}
}

func TestExplainShowsAllStages(t *testing.T) {
	tbl := runsFixture(t)
	plan, err := Select(tbl, "forecast").
		Aggregate(Agg{AggAvg, "walltime"}).
		GroupBy("forecast").
		Where(Pred{"ok", OpEq, BoolVal(true)}).
		OrderBy(OrderKey{Col: "forecast", Desc: true}).
		Limit(5).
		Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hash group by (forecast)", "sort (forecast desc)", "limit 5", "filter"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan = %q, missing %q", plan, want)
		}
	}
}

func TestExplainSQLStatement(t *testing.T) {
	db := sqlFixture(t)
	if err := db.Table("runs").CreateIndex("code_version"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN SELECT forecast FROM runs WHERE code_version = 'v1' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("result = %+v", res)
	}
	plan := res.Rows[0][0].Str()
	if !strings.Contains(plan, "index probe on runs.code_version") || !strings.Contains(plan, "limit 3") {
		t.Fatalf("plan = %q", plan)
	}
	// Case-insensitive keyword.
	if _, err := db.Query("explain select * from runs"); err != nil {
		t.Fatal(err)
	}
	// EXPLAIN of invalid SQL errors.
	if _, err := db.Query("EXPLAIN SELECT nope FROM nothing"); err == nil {
		t.Fatal("EXPLAIN of bad SQL accepted")
	}
}

func TestExplainNilTable(t *testing.T) {
	if _, err := Select(nil).Explain(); err == nil {
		t.Fatal("Explain on nil table accepted")
	}
}

func TestExplainUnknownColumn(t *testing.T) {
	if _, err := Select(runsFixture(t)).Where(Pred{"missing", OpEq, IntVal(1)}).Explain(); err != nil {
		t.Fatal(err)
	}
}
