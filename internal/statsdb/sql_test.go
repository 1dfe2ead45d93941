package statsdb

import (
	"math"
	"strings"
	"testing"
)

func sqlFixture(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("runs", Schema{
		{Name: "forecast", Type: String},
		{Name: "day", Type: Int},
		{Name: "walltime", Type: Float},
		{Name: "code_version", Type: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]Value{
		{StringVal("tillamook"), IntVal(1), FloatVal(40000), StringVal("v1")},
		{StringVal("tillamook"), IntVal(2), FloatVal(40100), StringVal("v1")},
		{StringVal("tillamook"), IntVal(3), FloatVal(80000), StringVal("v2")},
		{StringVal("dev"), IntVal(1), FloatVal(32000), StringVal("v1")},
		{StringVal("dev"), IntVal(2), FloatVal(52000), StringVal("v3")},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSQLSelectStar(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("SELECT * FROM runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("shape %dx%d", len(res.Rows), len(res.Columns))
	}
}

func TestSQLFindForecastsUsingCodeVersion(t *testing.T) {
	// The paper's motivating query: "find all forecasts that use code
	// version X".
	db := sqlFixture(t)
	res, err := db.Query("SELECT forecast, day FROM runs WHERE code_version = 'v1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLWhereConjunctionAndComparators(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("SELECT forecast FROM runs WHERE walltime >= 40100 AND day <> 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // tillamook day 2, dev day 2
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLGroupByWithAggregates(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(
		"SELECT forecast, COUNT(*), AVG(walltime) FROM runs GROUP BY forecast ORDER BY forecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "dev" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Float() != 42000 {
		t.Fatalf("dev row = %v", res.Rows[0])
	}
}

func TestSQLGlobalAggregate(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("SELECT MAX(walltime), MIN(day) FROM runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 80000 || res.Rows[0][1].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLOrderByAggregateDesc(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query(
		"SELECT forecast, AVG(walltime) FROM runs GROUP BY forecast ORDER BY AVG(walltime) DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "tillamook" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLOrderByColumnAscDesc(t *testing.T) {
	db := sqlFixture(t)
	asc, err := db.Query("SELECT walltime FROM runs ORDER BY walltime ASC")
	if err != nil {
		t.Fatal(err)
	}
	desc, err := db.Query("SELECT walltime FROM runs ORDER BY walltime DESC")
	if err != nil {
		t.Fatal(err)
	}
	n := len(asc.Rows)
	for i := 0; i < n; i++ {
		if asc.Rows[i][0] != desc.Rows[n-1-i][0] {
			t.Fatal("ASC is not the reverse of DESC")
		}
	}
	if asc.Rows[0][0].Float() != 32000 {
		t.Fatalf("min = %v", asc.Rows[0][0])
	}
}

func TestSQLLimit(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("SELECT * FROM runs LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLStringEscapes(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Schema{{Name: "s", Type: String}})
	if err := tbl.Insert([]Value{StringVal("it's")}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT s FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLBoolAndFloatLiterals(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Schema{{Name: "ok", Type: Bool}, {Name: "x", Type: Float}})
	_ = tbl.Insert([]Value{BoolVal(true), FloatVal(1.5)})
	_ = tbl.Insert([]Value{BoolVal(false), FloatVal(-2.5)})
	res, err := db.Query("SELECT x FROM t WHERE ok = true")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 1.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = db.Query("SELECT ok FROM t WHERE x <= -2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != BoolVal(false) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLCaseInsensitiveKeywords(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("select forecast from runs where day = 1 order by forecast desc")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "tillamook" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLSyntaxErrors(t *testing.T) {
	db := sqlFixture(t)
	bad := []string{
		"",
		"SELEC * FROM runs",
		"SELECT * FROMM runs",
		"SELECT * FROM missing",
		"SELECT * FROM runs WHERE",
		"SELECT * FROM runs WHERE day ~ 3",
		"SELECT * FROM runs WHERE day = ",
		"SELECT * FROM runs WHERE forecast = unquoted",
		"SELECT * FROM runs LIMIT x",
		"SELECT * FROM runs LIMIT -1",
		"SELECT * FROM runs trailing garbage",
		"SELECT COUNT( FROM runs",
		"SELECT SUM(*) FROM runs",
		"SELECT * FROM runs GROUP BY",
		"SELECT * FROM runs ORDER BY",
		"SELECT 'literal' FROM runs",
		"SELECT * FROM runs WHERE s = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("accepted bad SQL: %q", sql)
		}
	}
}

func TestSQLUngroupedColumnWithAggregateRejected(t *testing.T) {
	db := sqlFixture(t)
	if _, err := db.Query("SELECT forecast, COUNT(*) FROM runs"); err == nil {
		t.Fatal("ungrouped column with aggregate accepted")
	}
}

func TestSQLResultFloats(t *testing.T) {
	db := sqlFixture(t)
	res, err := db.Query("SELECT day, walltime FROM runs WHERE forecast = 'tillamook' ORDER BY day")
	if err != nil {
		t.Fatal(err)
	}
	days, err := res.Floats("day")
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 3 || days[0] != 1 || days[2] != 3 {
		t.Fatalf("days = %v", days)
	}
	if _, err := res.Floats("missing"); err == nil {
		t.Fatal("Floats on missing column accepted")
	}
	res2, _ := db.Query("SELECT forecast FROM runs")
	if _, err := res2.Floats("forecast"); err == nil {
		t.Fatal("Floats on string column accepted")
	}
}

// A select list naming every column, in schema order, keeps those
// columns beside aggregates, as any shorter list does. * selects every
// column alone and none beside aggregates.
func TestSelectListNamingEveryColumnKeepsThem(t *testing.T) {
	db := NewDB()
	if _, err := LoadNodes(db, []NodeRow{{Name: "fnode01", CPUs: 2, Speed: 1}, {Name: "fnode02", CPUs: 2, Speed: 1.5}}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT name, cpus, speed, COUNT(*) FROM nodes GROUP BY name, cpus, speed": "name,cpus,speed,count(*)",
		"SELECT name, cpus, COUNT(*) FROM nodes GROUP BY name, cpus, speed":        "name,cpus,count(*)",
		"SELECT COUNT(*) FROM nodes GROUP BY name, cpus, speed":                    "count(*)",
		"SELECT * FROM nodes GROUP BY name, cpus, speed":                           "name,cpus,speed",
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.Columns, ","); got != want || len(res.Rows) != 2 || len(res.Rows[0]) != len(res.Columns) {
			t.Errorf("%s: columns %s, %d rows %v; want columns %s", sql, got, len(res.Rows), res.Rows, want)
		}
	}
	if _, err := db.Query("SELECT name, cpus, speed, COUNT(*) FROM nodes"); err == nil {
		t.Error("every column beside an aggregate without GROUP BY was accepted")
	}
	res, err := Select(db.Table(NodesTableName)).Aggregate(Agg{AggCount, "*"}).GroupBy("cpus").Run()
	if err != nil || strings.Join(res.Columns, ",") != "count(*)" || len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("Select(nodes) with COUNT(*) grouped by cpus = %v, %v; want one count(*) of 2", res, err)
	}
}

// SUM over INTs adds exactly in int64, and a total outside int64's range
// is an error rather than a rounded or wrapped number.
func TestSumOfIntsIsExact(t *testing.T) {
	for _, tc := range []struct {
		ids  []int64
		want string // "" for an error
	}{
		{[]int64{1 << 53, 1}, "9007199254740993"},
		{[]int64{math.MaxInt64, math.MaxInt64}, ""},
		{[]int64{math.MinInt64, -1}, ""},
		{[]int64{math.MaxInt64, 1, -1}, "9223372036854775807"},
	} {
		db := NewDB()
		tbl, err := db.CreateTable("t", Schema{{Name: "id", Type: Int}})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range tc.ids {
			if err := tbl.Insert([]Value{IntVal(id)}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.Query("SELECT SUM(id) FROM t")
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("SUM(id) over %v = %v, want an out-of-range error", tc.ids, res.Rows)
		case tc.want != "" && err != nil:
			t.Errorf("SUM(id) over %v: %v", tc.ids, err)
		case tc.want != "" && (res.Rows[0][0].Type() != Int || res.Rows[0][0].String() != tc.want):
			t.Errorf("SUM(id) over %v = %v, want INT %s", tc.ids, res.Rows[0][0], tc.want)
		}
	}
}

// GROUP BY keys values as the hash index does: −0 and +0, equal to a
// predicate, share one group, which shows its first row's value.
func TestGroupByPutsNegativeZeroWithZero(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("z", Schema{{Name: "x", Type: Float}})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.Copysign(0, -1), 0, 1} {
		if err := tbl.Insert([]Value{FloatVal(x)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT x, COUNT(*) FROM z GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "-0" || res.Rows[0][1].Int() != 2 || res.Rows[1][1].Int() != 1 {
		t.Fatalf("groups = %v, want [-0 2] [1 1]", res.Rows)
	}
	res, err = db.Query("SELECT COUNT(*) FROM z WHERE x = 0")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Fatalf("COUNT(*) WHERE x = 0 = %v, %v; want 2", res.Rows, err)
	}
}
