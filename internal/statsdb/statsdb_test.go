package statsdb

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func runsFixture(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("runs", Schema{
		{Name: "forecast", Type: String},
		{Name: "day", Type: Int},
		{Name: "walltime", Type: Float},
		{Name: "code_version", Type: String},
		{Name: "ok", Type: Bool},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		f    string
		d    int64
		w    float64
		code string
		ok   bool
	}{
		{"tillamook", 1, 40000, "v1", true},
		{"tillamook", 2, 40100, "v1", true},
		{"tillamook", 3, 80000, "v2", true},
		{"dev", 1, 32000, "v1", true},
		{"dev", 2, 31900, "v1", false},
		{"dev", 3, 52000, "v3", true},
	}
	for _, r := range rows {
		err := tbl.Insert([]Value{StringVal(r.f), IntVal(r.d), FloatVal(r.w), StringVal(r.code), BoolVal(r.ok)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestInsertTypeChecking(t *testing.T) {
	tbl := runsFixture(t)
	if err := tbl.Insert([]Value{IntVal(1), IntVal(1), FloatVal(1), StringVal("v"), BoolVal(true)}); err == nil {
		t.Fatal("wrong type accepted")
	}
	if err := tbl.Insert([]Value{StringVal("x")}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tbl.Insert([]Value{StringVal("x"), IntVal(1), FloatVal(nan()), StringVal("v"), BoolVal(true)}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func nan() float64 {
	var z float64
	return 0 / z
}

func TestSelectAllPreservesInsertionOrder(t *testing.T) {
	tbl := runsFixture(t)
	res, err := Select(tbl).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Columns) != 5 {
		t.Fatalf("shape %dx%d", len(res.Rows), len(res.Columns))
	}
	if res.Rows[0][0].Str() != "tillamook" || res.Rows[3][0].Str() != "dev" {
		t.Fatal("row order wrong")
	}
}

func TestWherePredicates(t *testing.T) {
	tbl := runsFixture(t)
	res, err := Select(tbl, "forecast", "walltime").
		Where(Pred{"walltime", OpGt, FloatVal(40000)}, Pred{"ok", OpEq, BoolVal(true)}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // 40100, 80000, 52000
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
}

func TestIndexProbeMatchesScan(t *testing.T) {
	// An indexed and an unindexed copy of the table answer every equality
	// alike: the same rows, or the same error. The hash index is probed
	// only when the literal has the column's type; otherwise both scan.
	cases := []struct {
		name  string
		pred  Pred
		probe bool
	}{
		{"string column, string literal", Pred{"forecast", OpEq, StringVal("dev")}, true},
		{"int column, int literal", Pred{"day", OpEq, IntVal(3)}, true},
		{"int column, integral float literal", Pred{"day", OpEq, FloatVal(3)}, false},
		{"int column, fractional float literal", Pred{"day", OpEq, FloatVal(3.5)}, false},
		{"int column, string literal", Pred{"day", OpEq, StringVal("x")}, false},
		{"float column, int literal", Pred{"walltime", OpEq, IntVal(40000)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scan, scanErr := Select(runsFixture(t)).Where(c.pred).Run()
			tbl := runsFixture(t)
			if err := tbl.CreateIndex(c.pred.Col); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(tbl.IndexedColumns(), c.pred.Col) {
				t.Fatal("index not reported")
			}
			probe, probeErr := Select(tbl).Where(c.pred).Run()
			if (scanErr == nil) != (probeErr == nil) || (scanErr != nil && scanErr.Error() != probeErr.Error()) {
				t.Fatalf("scan error %v, indexed error %v", scanErr, probeErr)
			}
			if scanErr == nil && !reflect.DeepEqual(scan.Rows, probe.Rows) {
				t.Fatalf("scan rows %v, indexed rows %v", scan.Rows, probe.Rows)
			}
			plan, err := Select(tbl).Where(c.pred).Explain()
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.HasPrefix(plan, "index probe"); got != c.probe {
				t.Fatalf("plan = %q, want index probe %v", plan, c.probe)
			}
		})
	}
}

func TestIndexMaintainedAcrossInserts(t *testing.T) {
	tbl := runsFixture(t)
	if err := tbl.CreateIndex("code_version"); err != nil {
		t.Fatal(err)
	}
	err := tbl.Insert([]Value{StringVal("new"), IntVal(9), FloatVal(1000), StringVal("v9"), BoolVal(true)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Select(tbl, "forecast").Where(Pred{"code_version", OpEq, StringVal("v9")}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "new" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	tbl := runsFixture(t)
	res, err := Select(tbl, "forecast").
		Aggregate(Agg{AggCount, "*"}, Agg{AggAvg, "walltime"}, Agg{AggMin, "day"}, Agg{AggMax, "day"}).
		GroupBy("forecast").
		OrderBy(OrderKey{Col: "forecast"}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// dev first (ordered).
	dev := res.Rows[0]
	if dev[0].Str() != "dev" || dev[1].Int() != 3 {
		t.Fatalf("dev row = %v", dev)
	}
	wantAvg := (32000.0 + 31900 + 52000) / 3
	if got := dev[res.Column("avg(walltime)")].Float(); got != wantAvg {
		t.Fatalf("avg = %v, want %v", got, wantAvg)
	}
	if dev[res.Column("min(day)")].Int() != 1 || dev[res.Column("max(day)")].Int() != 3 {
		t.Fatalf("min/max wrong: %v", dev)
	}
}

func TestGroupByKeysDoNotCollide(t *testing.T) {
	// Two-column groups whose values concatenate to the same text — with
	// or without separator bytes inside the values — stay apart.
	tbl, err := NewTable("t", Schema{{Name: "a", Type: String}, {Name: "b", Type: String}, {Name: "n", Type: Int}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{{"ab", "c"}, {"a", "bc"}, {"a\x012\x00b", "c"}, {"a", "b\x012\x00c"}, {"ab", "c"}}
	for _, p := range pairs {
		if err := tbl.Insert([]Value{StringVal(p[0]), StringVal(p[1]), IntVal(1)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Select(tbl, "a", "b").Aggregate(Agg{AggCount, "*"}).GroupBy("a", "b").Run()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{
		{StringVal("ab"), StringVal("c"), IntVal(2)},
		{StringVal("a"), StringVal("bc"), IntVal(1)},
		{StringVal("a\x012\x00b"), StringVal("c"), IntVal(1)},
		{StringVal("a"), StringVal("b\x012\x00c"), IntVal(1)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %q, want %q", res.Rows, want)
	}
}

func TestGlobalAggregates(t *testing.T) {
	tbl := runsFixture(t)
	res, err := (&Query{table: tbl}).
		Aggregate(Agg{AggSum, "walltime"}, Agg{AggCount, "*"}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := res.Rows[0][0].Float(); got != 276000 {
		t.Fatalf("sum = %v", got)
	}
	if res.Rows[0][1].Int() != 6 {
		t.Fatalf("count = %v", res.Rows[0][1])
	}
}

func TestSumOfIntsStaysInt(t *testing.T) {
	tbl := runsFixture(t)
	res, err := (&Query{table: tbl}).Aggregate(Agg{AggSum, "day"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0][0]
	if v.Type() != Int || v.Int() != 12 {
		t.Fatalf("sum(day) = %v (%s)", v, v.Type())
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	tbl := runsFixture(t)
	res, err := Select(tbl, "walltime").
		OrderBy(OrderKey{Col: "walltime", Desc: true}).
		Limit(2).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Float() != 80000 || res.Rows[1][0].Float() != 52000 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	tbl := runsFixture(t)
	cases := []*Query{
		Select(tbl, "missing"),
		Select(tbl).Where(Pred{"missing", OpEq, IntVal(1)}),
		Select(tbl, "forecast").GroupBy("missing"),
		Select(tbl, "walltime").Aggregate(Agg{AggCount, "*"}).GroupBy("forecast"),      // walltime not grouped
		Select(tbl, "forecast").Aggregate(Agg{AggSum, "forecast"}).GroupBy("forecast"), // sum of string
		(&Query{table: tbl}).Aggregate(Agg{AggSum, "*"}),
		Select(nil),
	}
	for i, q := range cases {
		if _, err := q.Run(); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

func TestMixedTypeComparisonFails(t *testing.T) {
	tbl := runsFixture(t)
	if _, err := Select(tbl).Where(Pred{"forecast", OpLt, IntVal(3)}).Run(); err == nil {
		t.Fatal("string < int accepted")
	}
}

func TestIntFloatComparableInPredicates(t *testing.T) {
	tbl := runsFixture(t)
	res, err := Select(tbl).Where(Pred{"day", OpGe, FloatVal(2.5)}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDBTables(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("a", Schema{{Name: "x", Type: Int}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", Schema{{Name: "x", Type: Int}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.CreateTable("", Schema{{Name: "x", Type: Int}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := db.CreateTable("b", Schema{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := db.CreateTable("c", Schema{{Name: "x", Type: Int}, {Name: "x", Type: Int}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if db.Table("a") == nil || db.Table("zz") != nil {
		t.Fatal("table lookup wrong")
	}
	if strings.Join(db.TableNames(), ",") != "a" {
		t.Fatalf("TableNames = %v", db.TableNames())
	}
}

func TestValueAccessorsAndStrings(t *testing.T) {
	if IntVal(3).Float() != 3 || FloatVal(2.5).Float() != 2.5 {
		t.Fatal("numeric accessors wrong")
	}
	if IntVal(3).String() != "3" || StringVal("x").String() != "x" || BoolVal(true).String() != "true" {
		t.Fatal("String renderings wrong")
	}
	if FloatVal(2.5).String() != "2.5" {
		t.Fatalf("FloatVal.String = %q", FloatVal(2.5).String())
	}
	for _, ty := range []Type{Int, Float, String, Bool, Type(9)} {
		if ty.String() == "" {
			t.Fatal("empty type name")
		}
	}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, Op(9)} {
		if op.String() == "" {
			t.Fatal("empty op name")
		}
	}
	for _, fn := range []AggFn{AggCount, AggSum, AggAvg, AggMin, AggMax, AggFn(9)} {
		if fn.String() == "" {
			t.Fatal("empty agg name")
		}
	}
}

// Property: for random predicates over a random int table, the query
// result matches a straightforward reference filter.
func TestPropertyWhereMatchesReferenceFilter(t *testing.T) {
	f := func(data []int8, threshold int8, opRaw uint8) bool {
		tbl, err := NewTable("t", Schema{{Name: "v", Type: Int}})
		if err != nil {
			return false
		}
		for _, d := range data {
			if err := tbl.Insert([]Value{IntVal(int64(d))}); err != nil {
				return false
			}
		}
		op := Op(opRaw % 6)
		res, err := Select(tbl).Where(Pred{"v", op, IntVal(int64(threshold))}).Run()
		if err != nil {
			return false
		}
		var want []int64
		for _, d := range data {
			v, th := int64(d), int64(threshold)
			keep := false
			switch op {
			case OpEq:
				keep = v == th
			case OpNe:
				keep = v != th
			case OpLt:
				keep = v < th
			case OpLe:
				keep = v <= th
			case OpGt:
				keep = v > th
			case OpGe:
				keep = v >= th
			}
			if keep {
				want = append(want, v)
			}
		}
		if len(res.Rows) != len(want) {
			return false
		}
		for i, row := range res.Rows {
			if row[0].Int() != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntComparisonsExactAbove2To53(t *testing.T) {
	// 2^53 and 2^53+1 are one float64: INT against INT compares as int64,
	// so a scan, an index probe, MIN/MAX, ORDER BY and an INT join tell
	// them apart. INT against FLOAT still compares as float64.
	for _, indexed := range []bool{false, true} {
		db := NewDB()
		tbl, err := db.CreateTable("t", Schema{{Name: "id", Type: Int}})
		if err != nil {
			t.Fatal(err)
		}
		if indexed {
			if err := tbl.CreateIndex("id"); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range []int64{1 << 53, 1<<53 + 1} {
			if err := tbl.Insert([]Value{IntVal(v)}); err != nil {
				t.Fatal(err)
			}
		}
		for sql, want := range map[string]string{
			"SELECT id FROM t WHERE id = 9007199254740993":                 "9007199254740993",
			"SELECT id FROM t WHERE id > 9007199254740992":                 "9007199254740993",
			"SELECT id FROM t WHERE id < 9007199254740993":                 "9007199254740992",
			"SELECT id FROM t WHERE id = 9007199254740992.0":               "9007199254740992,9007199254740993",
			"SELECT MAX(id) FROM t":                                        "9007199254740993",
			"SELECT id FROM t ORDER BY id DESC":                            "9007199254740993,9007199254740992",
			"SELECT COUNT(*) FROM t WHERE id != 9007199254740992":          "1",
			"SELECT id FROM t WHERE id >= 9007199254740993 AND id <= 1e20": "9007199254740993",
		} {
			res, err := db.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[0].String())
			}
			if strings.Join(got, ",") != want {
				t.Errorf("indexed %v: %s = %v, want %s", indexed, sql, got, want)
			}
		}
	}
	left, _ := NewTable("l", Schema{{Name: "a", Type: Int}})
	right, _ := NewTable("r", Schema{{Name: "b", Type: Int}})
	for _, row := range [][2]int64{{1 << 53, 1<<53 + 1}, {1<<53 + 1, 7}} {
		if err := left.Insert([]Value{IntVal(row[0])}); err != nil {
			t.Fatal(err)
		}
		if err := right.Insert([]Value{IntVal(row[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if j, err := Join(left, right, "a", "b"); err != nil || j.Len() != 1 || j.Row(0)[0].Int() != 1<<53+1 {
		t.Fatalf("INT join: %v, %v", j, err)
	}
}

func TestTypeErrorDoesNotDependOnIndexes(t *testing.T) {
	// A predicate whose literal cannot compare with its column fails on
	// the first row that reaches it. With an index on another column the
	// query still scans, so it fails exactly when the unindexed table
	// does; a well-typed query keeps its probe.
	plan := func(tbl *Table, sql string) string {
		res, err := (&DB{tables: map[string]*Table{"runs": tbl}}).Query("EXPLAIN " + sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Str()
	}
	for _, sql := range []string{
		"SELECT * FROM runs WHERE ok = 3 AND forecast = 'nosuch'",
		"SELECT * FROM runs WHERE forecast = 'nosuch' AND day = 'x'",
	} {
		scan := runsFixture(t)
		_, scanErr := (&DB{tables: map[string]*Table{"runs": scan}}).Query(sql)
		tbl := runsFixture(t)
		if err := tbl.CreateIndex("forecast"); err != nil {
			t.Fatal(err)
		}
		_, err := (&DB{tables: map[string]*Table{"runs": tbl}}).Query(sql)
		if (scanErr == nil) != (err == nil) {
			t.Errorf("%s: unindexed error %v, indexed error %v", sql, scanErr, err)
		}
		if p := plan(tbl, sql); !strings.HasPrefix(p, "full scan") {
			t.Errorf("%s: plan %q, want a full scan", sql, p)
		}
	}
	tbl := runsFixture(t)
	if err := tbl.CreateIndex("forecast"); err != nil {
		t.Fatal(err)
	}
	if p := plan(tbl, "SELECT * FROM runs WHERE day = 2.5 AND forecast = 'dev'"); !strings.HasPrefix(p, "index probe") {
		t.Errorf("well-typed plan %q, want an index probe", p)
	}
}

func TestTableUpdateMaintainsIndexes(t *testing.T) {
	tbl, err := NewTable("t", Schema{
		{Name: "k", Type: String},
		{Name: "v", Type: Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "a"} {
		if err := tbl.Insert([]Value{StringVal(k), IntVal(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Move row 0 from key "a" to key "c".
	if err := tbl.Update(0, []Value{StringVal("c"), IntVal(9)}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.lookupRows(nil, 0, StringVal("a")); len(got) != 1 || got[0] != 2 {
		t.Fatalf(`lookup "a" = %v`, got)
	}
	if got := tbl.lookupRows(nil, 0, StringVal("c")); len(got) != 1 || got[0] != 0 {
		t.Fatalf(`lookup "c" = %v`, got)
	}
	if tbl.Row(0)[1].Int() != 9 {
		t.Fatalf("row 0 = %v", tbl.Row(0))
	}
	if err := tbl.Update(5, []Value{StringVal("x"), IntVal(0)}); err == nil {
		t.Fatal("out-of-range update accepted")
	}
}
