package statsdb

import (
	"fmt"
	"slices"

	"repro/internal/logs"
)

// RunsTableName is the conventional name of the run-statistics table.
const RunsTableName = "runs"

// Names of the provenance columns the harvester's schema migrations add
// to the runs table (see internal/harvest). Loading handles their
// presence or absence transparently.
const (
	ColHarvestedAt = "harvested_at"
	ColSourcePath  = "source_path"
)

// RunsSchema returns the base schema of the run-statistics table: one
// tuple per run execution, as harvested from run logs. Databases built by
// the harvester carry additional provenance columns on top (harvested_at,
// source_path) via migrations.
func RunsSchema() Schema {
	s := make(Schema, len(runFields)-2)
	for i := range s {
		s[i] = runFields[i].Column
	}
	return s
}

// runField is one runs column and the record field it stores: a *string,
// *int or *float64 (none for harvested_at).
type runField struct {
	Column
	field func(r *logs.RunRecord) any
}

// runFields are the runs columns in a harvested table's order: the base
// schema, then the provenance columns. They are the plan UpsertRuns writes
// rows by and ReadRuns reads them back by.
var runFields = []runField{
	{Column{"forecast", String}, func(r *logs.RunRecord) any { return &r.Forecast }},
	{Column{"region", String}, func(r *logs.RunRecord) any { return &r.Region }},
	{Column{"year", Int}, func(r *logs.RunRecord) any { return &r.Year }},
	{Column{"day", Int}, func(r *logs.RunRecord) any { return &r.Day }},
	{Column{"node", String}, func(r *logs.RunRecord) any { return &r.Node }},
	{Column{"code_version", String}, func(r *logs.RunRecord) any { return &r.CodeVersion }},
	{Column{"code_factor", Float}, func(r *logs.RunRecord) any { return &r.CodeFactor }},
	{Column{"mesh", String}, func(r *logs.RunRecord) any { return &r.MeshName }},
	{Column{"mesh_sides", Int}, func(r *logs.RunRecord) any { return &r.MeshSides }},
	{Column{"timesteps", Int}, func(r *logs.RunRecord) any { return &r.Timesteps }},
	{Column{"start", Float}, func(r *logs.RunRecord) any { return &r.Start }},
	{Column{"end", Float}, func(r *logs.RunRecord) any { return &r.End }},
	{Column{"walltime", Float}, func(r *logs.RunRecord) any { return &r.Walltime }},
	{Column{"status", String}, func(r *logs.RunRecord) any { return &r.Status }},
	{Column{"products", Int}, func(r *logs.RunRecord) any { return &r.Products }},
	{Column{ColHarvestedAt, Float}, nil},
	{Column{ColSourcePath, String}, func(r *logs.RunRecord) any { return &r.SourcePath }},
}

// runPlan resolves each of the table's columns to its record field once
// per call (nil for a column no field stores). A column at its usual
// position resolves without a search.
func runPlan(schema Schema) []func(*logs.RunRecord) any {
	plan := make([]func(*logs.RunRecord) any, 0, len(schema))
	for i, c := range schema {
		if i >= len(runFields) || runFields[i].Name != c.Name {
			i = slices.IndexFunc(runFields, func(f runField) bool { return f.Name == c.Name })
		}
		var field func(r *logs.RunRecord) any
		if i >= 0 {
			field = runFields[i].field
		}
		plan = append(plan, field)
	}
	return plan
}

// NodesTableName is the conventional name of the plant-metadata table.
const NodesTableName = "nodes"

// NodeRow is plant metadata for the nodes table.
type NodeRow struct {
	Name  string  `db:"name"`
	CPUs  int     `db:"cpus"`
	Speed float64 `db:"speed"`
}

var nodesTable = NewTypedTable[NodeRow](NodesTableName, "name")

// LoadNodes creates (or extends) the nodes table, enabling joined queries
// such as speed-normalized walltimes per node.
func LoadNodes(db *DB, nodes []NodeRow) (*Table, error) {
	if err := nodesTable.Create(db); err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("statsdb: node row with empty name")
		}
	}
	return nodesTable.Insert(db, nodes...)
}

// EnsureRunsTable finds or creates the runs table with the base schema,
// indexing the columns the factory's common queries probe: forecast name,
// code version, and node.
func EnsureRunsTable(db *DB) (*Table, error) {
	if t := db.Table(RunsTableName); t != nil {
		return t, nil
	}
	t, err := db.CreateTable(RunsTableName, RunsSchema())
	if err != nil {
		return nil, err
	}
	for _, col := range []string{"forecast", "code_version", "node"} {
		if err := t.CreateIndex(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// UpsertStats counts what one upsert batch did.
type UpsertStats struct {
	Inserted int
	Updated  int
}

// UpsertRuns inserts records into the runs table, replacing any existing
// row with the same (forecast, day, start) key — one run execution —
// instead of appending a duplicate. This is what makes re-harvesting the
// same logs (a crash-recovery re-scan, a running log superseded by its
// completed version) idempotent. harvestedAt fills the harvested_at
// provenance column when the table carries it.
func UpsertRuns(db *DB, records []*logs.RunRecord, harvestedAt float64) (*Table, UpsertStats, error) {
	var stats UpsertStats
	t, err := EnsureRunsTable(db)
	if err != nil {
		return nil, stats, err
	}
	plan := runPlan(t.schema)
	// The harvester upserts one log per call: the row and the ids of the
	// rows sharing its forecast (one per day harvested) stay on the stack
	// when they fit.
	var rowBuf [24]Value
	var sameBuf [64]int32
	row, same := slices.Grow(rowBuf[:0], len(plan))[:len(plan)], sameBuf[:0]
	fi, di, si := t.schema.Index("forecast"), t.schema.Index("day"), t.schema.Index("start")
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return nil, stats, fmt.Errorf("statsdb: load runs: %w", err)
		}
		// Unknown columns get zero values of their type.
		for i, field := range plan {
			switch f := field; {
			case f != nil:
				row[i] = fieldValue(f(r))
			case t.schema[i].Name == ColHarvestedAt:
				row[i] = FloatVal(harvestedAt)
			default:
				row[i] = Value{t: t.schema[i].Type}
			}
		}
		id := -1
		same = t.lookupRows(same[:0], fi, StringVal(r.Forecast))
		for _, s := range same {
			if t.cols[di].value(int(s)).Int() == int64(r.Day) && t.cols[si].value(int(s)).Float() == r.Start {
				id = int(s)
				break
			}
		}
		if id < 0 {
			if err := t.Insert(row); err != nil {
				return nil, stats, err
			}
			stats.Inserted++
		} else {
			if err := t.Update(id, row); err != nil {
				return nil, stats, err
			}
			stats.Updated++
		}
	}
	return t, stats, nil
}

// LoadRuns creates (or extends) the runs table from crawled run records.
// Loading is an upsert keyed on (forecast, day, start): loading the same
// records twice leaves the table unchanged rather than duplicating rows.
func LoadRuns(db *DB, records []*logs.RunRecord) (*Table, error) {
	t, _, err := UpsertRuns(db, records, 0)
	return t, err
}

// ReadRuns converts the runs table back into run records — the inverse of
// UpsertRuns, so consumers built on []*logs.RunRecord (the estimator, the
// monitor's history seed) can feed from a harvested database. Provenance
// columns, when present, populate SourcePath; unknown columns are ignored.
// The records are allocated as one block.
func ReadRuns(db *DB) ([]*logs.RunRecord, error) {
	t := db.Table(RunsTableName)
	if t == nil {
		return nil, nil
	}
	// A field whose column the table lacks (such as source_path before the
	// provenance migration) reads as the zero value.
	plan := runPlan(t.schema)
	recs := make([]logs.RunRecord, t.n)
	out := make([]*logs.RunRecord, t.n)
	for i := range recs {
		for ci, field := range plan {
			if field != nil {
				setField(field(&recs[i]), t.cols[ci].value(i))
			}
		}
		if err := recs[i].Validate(); err != nil {
			return nil, fmt.Errorf("statsdb: read runs row %d: %w", i, err)
		}
		out[i] = &recs[i]
	}
	return out, nil
}

// fieldValue boxes a record field.
func fieldValue(field any) Value {
	switch f := field.(type) {
	case *string:
		return StringVal(*f)
	case *int:
		return IntVal(int64(*f))
	default:
		return FloatVal(*field.(*float64))
	}
}

// setField stores v in a record field, as v's accessor for the field's
// type reads it.
func setField(field any, v Value) {
	switch f := field.(type) {
	case *string:
		*f = v.Str()
	case *int:
		*f = int(v.Int())
	case *float64:
		*f = v.Float()
	}
}
