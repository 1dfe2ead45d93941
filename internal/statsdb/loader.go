package statsdb

import (
	"fmt"

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
	return Schema{
		{Name: "forecast", Type: String},
		{Name: "region", Type: String},
		{Name: "year", Type: Int},
		{Name: "day", Type: Int},
		{Name: "node", Type: String},
		{Name: "code_version", Type: String},
		{Name: "code_factor", Type: Float},
		{Name: "mesh", Type: String},
		{Name: "mesh_sides", Type: Int},
		{Name: "timesteps", Type: Int},
		{Name: "start", Type: Float},
		{Name: "end", Type: Float},
		{Name: "walltime", Type: Float},
		{Name: "status", Type: String},
		{Name: "products", Type: Int},
	}
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

// runRow renders a record as a row of the table's actual schema, so the
// same loader works before and after the provenance migrations widen the
// table. Unknown columns get zero values of their type.
func runRow(schema Schema, r *logs.RunRecord, harvestedAt float64) []Value {
	row := make([]Value, len(schema))
	for i, c := range schema {
		switch c.Name {
		case "forecast":
			row[i] = StringVal(r.Forecast)
		case "region":
			row[i] = StringVal(r.Region)
		case "year":
			row[i] = IntVal(int64(r.Year))
		case "day":
			row[i] = IntVal(int64(r.Day))
		case "node":
			row[i] = StringVal(r.Node)
		case "code_version":
			row[i] = StringVal(r.CodeVersion)
		case "code_factor":
			row[i] = FloatVal(r.CodeFactor)
		case "mesh":
			row[i] = StringVal(r.MeshName)
		case "mesh_sides":
			row[i] = IntVal(int64(r.MeshSides))
		case "timesteps":
			row[i] = IntVal(int64(r.Timesteps))
		case "start":
			row[i] = FloatVal(r.Start)
		case "end":
			row[i] = FloatVal(r.End)
		case "walltime":
			row[i] = FloatVal(r.Walltime)
		case "status":
			row[i] = StringVal(r.Status)
		case "products":
			row[i] = IntVal(int64(r.Products))
		case ColHarvestedAt:
			row[i] = FloatVal(harvestedAt)
		case ColSourcePath:
			row[i] = StringVal(r.SourcePath)
		default:
			switch c.Type {
			case Int:
				row[i] = IntVal(0)
			case Float:
				row[i] = FloatVal(0)
			case Bool:
				row[i] = BoolVal(false)
			default:
				row[i] = StringVal("")
			}
		}
	}
	return row
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
	schema := t.schema
	di := schema.Index("day")
	si := schema.Index("start")
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return nil, stats, fmt.Errorf("statsdb: load runs: %w", err)
		}
		row := runRow(schema, r, harvestedAt)
		replaced := false
		for _, id := range t.lookupRows("forecast", StringVal(r.Forecast)) {
			have := t.rows[id]
			if have[di].Int() == int64(r.Day) && have[si].Float() == r.Start {
				if err := t.Update(id, row); err != nil {
					return nil, stats, err
				}
				replaced = true
				stats.Updated++
				break
			}
		}
		if replaced {
			continue
		}
		if err := t.Insert(row); err != nil {
			return nil, stats, err
		}
		stats.Inserted++
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
func ReadRuns(db *DB) ([]*logs.RunRecord, error) {
	t := db.Table(RunsTableName)
	if t == nil {
		return nil, nil
	}
	// Resolve each field's column once; a column the table lacks (such as
	// source_path before the provenance migration) reads as the zero value.
	pos := t.schema.Index
	forecast, region, year, day := pos("forecast"), pos("region"), pos("year"), pos("day")
	node, codeVersion, codeFactor, mesh := pos("node"), pos("code_version"), pos("code_factor"), pos("mesh")
	meshSides, timesteps, start, end := pos("mesh_sides"), pos("timesteps"), pos("start"), pos("end")
	walltime, status, products, sourcePath := pos("walltime"), pos("status"), pos("products"), pos(ColSourcePath)
	out := make([]*logs.RunRecord, 0, t.Len())
	for i, row := range t.rows {
		at := func(ci int) Value {
			if ci < 0 {
				return Value{}
			}
			return row[ci]
		}
		r := &logs.RunRecord{
			Forecast:    at(forecast).Str(),
			Region:      at(region).Str(),
			Year:        int(at(year).Int()),
			Day:         int(at(day).Int()),
			Node:        at(node).Str(),
			CodeVersion: at(codeVersion).Str(),
			CodeFactor:  at(codeFactor).Float(),
			MeshName:    at(mesh).Str(),
			MeshSides:   int(at(meshSides).Int()),
			Timesteps:   int(at(timesteps).Int()),
			Start:       at(start).Float(),
			End:         at(end).Float(),
			Walltime:    at(walltime).Float(),
			Status:      at(status).Str(),
			Products:    int(at(products).Int()),
			SourcePath:  at(sourcePath).Str(),
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("statsdb: read runs row %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}
