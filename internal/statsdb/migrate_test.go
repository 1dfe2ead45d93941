package statsdb

import (
	"fmt"
	"testing"
)

func testMigrations(counts *[2]int) []Migration {
	return []Migration{
		{Version: 1, Name: "create-runs", Apply: func(db *DB) error {
			counts[0]++
			_, err := EnsureRunsTable(db)
			return err
		}},
		{Version: 2, Name: "provenance", Apply: func(db *DB) error {
			counts[1]++
			t := db.Table(RunsTableName)
			if err := t.AddColumn(Column{Name: ColHarvestedAt, Type: Float}, FloatVal(0)); err != nil {
				return err
			}
			return t.AddColumn(Column{Name: ColSourcePath, Type: String}, StringVal(""))
		}},
	}
}

func TestMigrateAppliesOnceInOrder(t *testing.T) {
	db := NewDB()
	var counts [2]int
	applied, err := Migrate(db, testMigrations(&counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Fatalf("applied = %v", applied)
	}
	if v := SchemaVersion(db); v != 2 {
		t.Fatalf("SchemaVersion = %d", v)
	}
	// Second call is a no-op: every version is recorded.
	applied, err = Migrate(db, testMigrations(&counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 {
		t.Fatalf("re-applied = %v", applied)
	}
	if counts != [2]int{1, 1} {
		t.Fatalf("apply counts = %v", counts)
	}
	sch := db.Table(RunsTableName).Schema()
	if sch.Index(ColHarvestedAt) < 0 || sch.Index(ColSourcePath) < 0 {
		t.Fatalf("provenance columns missing: %v", sch)
	}
}

func TestMigratePartialUpgrade(t *testing.T) {
	// A database stopped at v1 picks up only v2 later.
	db := NewDB()
	var counts [2]int
	migs := testMigrations(&counts)
	if _, err := Migrate(db, migs[:1]); err != nil {
		t.Fatal(err)
	}
	if v := SchemaVersion(db); v != 1 {
		t.Fatalf("SchemaVersion = %d", v)
	}
	applied, err := Migrate(db, migs)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0] != 2 {
		t.Fatalf("applied = %v", applied)
	}
}

func TestMigrateRejectsBadVersions(t *testing.T) {
	db := NewDB()
	nop := func(*DB) error { return nil }
	if _, err := Migrate(db, []Migration{{Version: 0, Name: "zero", Apply: nop}}); err == nil {
		t.Fatal("version 0 accepted")
	}
	if _, err := Migrate(db, []Migration{
		{Version: 3, Name: "a", Apply: nop},
		{Version: 3, Name: "b", Apply: nop},
	}); err == nil {
		t.Fatal("duplicate version accepted")
	}
}

func TestMigrateStopsOnFailure(t *testing.T) {
	db := NewDB()
	applied, err := Migrate(db, []Migration{
		{Version: 1, Name: "good", Apply: func(*DB) error { return nil }},
		{Version: 2, Name: "bad", Apply: func(*DB) error { return fmt.Errorf("boom") }},
		{Version: 3, Name: "never", Apply: func(*DB) error {
			t.Fatal("migration after a failure ran")
			return nil
		}},
	})
	if err == nil {
		t.Fatal("failing migration reported no error")
	}
	if len(applied) != 1 || applied[0] != 1 {
		t.Fatalf("applied = %v", applied)
	}
	if v := SchemaVersion(db); v != 1 {
		t.Fatalf("SchemaVersion = %d after failure", v)
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

func TestTableAddColumn(t *testing.T) {
	tbl, err := NewTable("t", Schema{{Name: "a", Type: Int}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{IntVal(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn(Column{Name: "b", Type: String}, StringVal("x")); err != nil {
		t.Fatal(err)
	}
	if row := tbl.Row(0); len(row) != 2 || row[1].Str() != "x" {
		t.Fatalf("row = %v", row)
	}
	if err := tbl.AddColumn(Column{Name: "b", Type: String}, StringVal("")); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tbl.AddColumn(Column{Name: "c", Type: Int}, StringVal("")); err == nil {
		t.Fatal("mistyped default accepted")
	}
}
