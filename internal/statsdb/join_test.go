package statsdb

import (
	"strings"
	"testing"

	"repro/internal/logs"
)

// joinFixture: runs on two nodes plus a nodes metadata table.
func joinFixture(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := LoadRuns(db, []*logs.RunRecord{
		rec("tillamook", 1, 40000, "v1"),
		rec("tillamook", 2, 40100, "v1"),
		rec("dev", 1, 16000, "v2"),
	}); err != nil {
		t.Fatal(err)
	}
	// dev ran on the fast node.
	fast := rec("dev", 2, 16100, "v2")
	fast.Node = "fnode02"
	tbl := db.Table("runs")
	if err := tbl.Insert([]Value{
		StringVal(fast.Forecast), StringVal(fast.Region), IntVal(int64(fast.Year)),
		IntVal(int64(fast.Day)), StringVal(fast.Node), StringVal(fast.CodeVersion),
		FloatVal(fast.CodeFactor), StringVal(fast.MeshName), IntVal(int64(fast.MeshSides)),
		IntVal(int64(fast.Timesteps)), FloatVal(fast.Start), FloatVal(fast.End),
		FloatVal(fast.Walltime), StringVal(fast.Status), IntVal(int64(fast.Products)),
		FloatVal(0), StringVal(fast.SourcePath),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNodes(db, []NodeRow{
		{Name: "fnode01", CPUs: 2, Speed: 1.0},
		{Name: "fnode02", CPUs: 2, Speed: 2.0},
		{Name: "fnode03", CPUs: 2, Speed: 1.0}, // no runs
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestJoinMaterializesMatchingPairs(t *testing.T) {
	db := joinFixture(t)
	joined, err := Join(db.Table("runs"), db.Table("nodes"), "node", "name")
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 4 { // every run matches exactly one node
		t.Fatalf("joined rows = %d, want 4", joined.Len())
	}
	// Qualified columns present.
	s := joined.Schema()
	if s.Index("runs.walltime") < 0 || s.Index("nodes.speed") < 0 {
		t.Fatalf("schema = %v", s)
	}
}

func TestJoinErrors(t *testing.T) {
	db := joinFixture(t)
	runs, nodes := db.Table("runs"), db.Table("nodes")
	if _, err := Join(nil, nodes, "a", "b"); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := Join(runs, nodes, "nope", "name"); err == nil {
		t.Fatal("unknown left column accepted")
	}
	if _, err := Join(runs, nodes, "node", "nope"); err == nil {
		t.Fatal("unknown right column accepted")
	}
	if _, err := Join(runs, nodes, "walltime", "name"); err == nil {
		t.Fatal("float-string join accepted")
	}
	if _, err := Join(runs, nodes, "day", "speed"); err != nil {
		t.Fatalf("int-float join rejected: %v", err)
	}
}

func TestSQLJoinQuery(t *testing.T) {
	db := joinFixture(t)
	// Speed-normalized walltime per forecast: the monitoring query the
	// plant metadata enables.
	res, err := db.Query(
		"SELECT forecast, AVG(walltime), AVG(speed) FROM runs JOIN nodes ON node = name " +
			"GROUP BY forecast ORDER BY forecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	dev := res.Rows[0]
	if dev[0].Str() != "dev" || dev[2].Float() != 1.5 {
		t.Fatalf("dev row = %v (avg speed of fnode01+fnode02 should be 1.5)", dev)
	}
}

func TestSQLJoinWithQualifiedColumns(t *testing.T) {
	db := joinFixture(t)
	res, err := db.Query(
		"SELECT runs.forecast, nodes.speed FROM runs JOIN nodes ON runs.node = nodes.name " +
			"WHERE nodes.speed >= 2.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "dev" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "runs.forecast" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSQLJoinAmbiguousColumnRejected(t *testing.T) {
	db := NewDB()
	a, _ := db.CreateTable("a", Schema{{Name: "k", Type: Int}, {Name: "v", Type: Int}})
	b, _ := db.CreateTable("b", Schema{{Name: "k", Type: Int}, {Name: "v", Type: Int}})
	_ = a.Insert([]Value{IntVal(1), IntVal(10)})
	_ = b.Insert([]Value{IntVal(1), IntVal(20)})
	// "v" exists on both sides: selecting it unqualified is ambiguous.
	if _, err := db.Query("SELECT v FROM a JOIN b ON a.k = b.k"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	// "k" in ON is ambiguous without qualification.
	if _, err := db.Query("SELECT a.v FROM a JOIN b ON k = k"); err == nil {
		t.Fatal("ambiguous ON column accepted")
	}
	// Qualified works.
	res, err := db.Query("SELECT a.v, b.v FROM a JOIN b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 20 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLJoinSyntaxErrors(t *testing.T) {
	db := joinFixture(t)
	bad := []string{
		"SELECT * FROM runs JOIN",
		"SELECT * FROM runs JOIN missing ON node = name",
		"SELECT * FROM runs JOIN nodes",
		"SELECT * FROM runs JOIN nodes ON node",
		"SELECT * FROM runs JOIN nodes ON node = ",
		"SELECT * FROM runs JOIN nodes ON node = nope",
		"SELECT * FROM runs JOIN nodes ON node = walltime", // both left side
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("accepted bad SQL: %q", sql)
		}
	}
}

func TestSQLJoinOrderByAggregate(t *testing.T) {
	db := joinFixture(t)
	res, err := db.Query(
		"SELECT forecast, MAX(walltime) FROM runs JOIN nodes ON node = name " +
			"GROUP BY forecast ORDER BY MAX(walltime) DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "tillamook" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinUnmatchedRowsDropped(t *testing.T) {
	// Inner join: nodes without runs do not appear.
	db := joinFixture(t)
	res, err := db.Query("SELECT nodes.name FROM runs JOIN nodes ON node = name GROUP BY nodes.name")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range res.Rows {
		names = append(names, row[0].Str())
	}
	joinedNames := strings.Join(names, ",")
	if strings.Contains(joinedNames, "fnode03") {
		t.Fatalf("unmatched node appeared: %v", names)
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
}

func TestLoadNodesValidation(t *testing.T) {
	db := NewDB()
	if _, err := LoadNodes(db, []NodeRow{{Name: ""}}); err == nil {
		t.Fatal("empty node name accepted")
	}
	if _, err := LoadNodes(db, []NodeRow{{Name: "n1", CPUs: 2, Speed: 1}}); err != nil {
		t.Fatal(err)
	}
	// Extending works.
	tbl, err := LoadNodes(db, []NodeRow{{Name: "n2", CPUs: 2, Speed: 1}})
	if err != nil || tbl.Len() != 2 {
		t.Fatalf("len=%d err=%v", tbl.Len(), err)
	}
}
