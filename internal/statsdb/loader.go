package statsdb

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/logs"
)

// RunsTableName is the conventional name of the run-statistics table.
const RunsTableName = "runs"

// Names of the runs table's provenance columns: the sim time the
// harvester wrote the row (0 for LoadRuns) and the log it was parsed from.
const (
	ColHarvestedAt = "harvested_at"
	ColSourcePath  = "source_path"
)

// RunsSchema returns the layout of the run-statistics table: one tuple
// per run execution, as harvested from run logs, then the provenance
// columns.
func RunsSchema() Schema {
	s := make(Schema, len(runFields))
	for i := range s {
		s[i] = runFields[i].Column
	}
	return s
}

// runsSchema is the runs table's layout, built once so that checking a
// table against it allocates nothing.
var runsSchema = RunsSchema()

// runField is one runs column and the record field it stores (none for
// harvested_at): get reads the field as a value of the column's type, and
// set fills the field from a row of the column.
type runField struct {
	Column
	get func(r *logs.RunRecord) Value
	set func(r *logs.RunRecord, c *column, row int)
}

// runFields are the runs columns in order: UpsertRuns writes rows by them
// and ReadRuns reads them back by position.
var runFields = []runField{
	{Column{"forecast", String},
		func(r *logs.RunRecord) Value { return StringVal(r.Forecast) },
		func(r *logs.RunRecord, c *column, i int) { r.Forecast = c.strAt(i) }},
	{Column{"region", String},
		func(r *logs.RunRecord) Value { return StringVal(r.Region) },
		func(r *logs.RunRecord, c *column, i int) { r.Region = c.strAt(i) }},
	{Column{"year", Int},
		func(r *logs.RunRecord) Value { return IntVal(int64(r.Year)) },
		func(r *logs.RunRecord, c *column, i int) { r.Year = int(c.intAt(i)) }},
	{Column{"day", Int},
		func(r *logs.RunRecord) Value { return IntVal(int64(r.Day)) },
		func(r *logs.RunRecord, c *column, i int) { r.Day = int(c.intAt(i)) }},
	{Column{"node", String},
		func(r *logs.RunRecord) Value { return StringVal(r.Node) },
		func(r *logs.RunRecord, c *column, i int) { r.Node = c.strAt(i) }},
	{Column{"code_version", String},
		func(r *logs.RunRecord) Value { return StringVal(r.CodeVersion) },
		func(r *logs.RunRecord, c *column, i int) { r.CodeVersion = c.strAt(i) }},
	{Column{"code_factor", Float},
		func(r *logs.RunRecord) Value { return FloatVal(r.CodeFactor) },
		func(r *logs.RunRecord, c *column, i int) { r.CodeFactor = c.floatAt(i) }},
	{Column{"mesh", String},
		func(r *logs.RunRecord) Value { return StringVal(r.MeshName) },
		func(r *logs.RunRecord, c *column, i int) { r.MeshName = c.strAt(i) }},
	{Column{"mesh_sides", Int},
		func(r *logs.RunRecord) Value { return IntVal(int64(r.MeshSides)) },
		func(r *logs.RunRecord, c *column, i int) { r.MeshSides = int(c.intAt(i)) }},
	{Column{"timesteps", Int},
		func(r *logs.RunRecord) Value { return IntVal(int64(r.Timesteps)) },
		func(r *logs.RunRecord, c *column, i int) { r.Timesteps = int(c.intAt(i)) }},
	{Column{"start", Float},
		func(r *logs.RunRecord) Value { return FloatVal(r.Start) },
		func(r *logs.RunRecord, c *column, i int) { r.Start = c.floatAt(i) }},
	{Column{"end", Float},
		func(r *logs.RunRecord) Value { return FloatVal(r.End) },
		func(r *logs.RunRecord, c *column, i int) { r.End = c.floatAt(i) }},
	{Column{"walltime", Float},
		func(r *logs.RunRecord) Value { return FloatVal(r.Walltime) },
		func(r *logs.RunRecord, c *column, i int) { r.Walltime = c.floatAt(i) }},
	{Column{"status", String},
		func(r *logs.RunRecord) Value { return StringVal(r.Status) },
		func(r *logs.RunRecord, c *column, i int) { r.Status = c.strAt(i) }},
	{Column{"products", Int},
		func(r *logs.RunRecord) Value { return IntVal(int64(r.Products)) },
		func(r *logs.RunRecord, c *column, i int) { r.Products = int(c.intAt(i)) }},
	{Column: Column{ColHarvestedAt, Float}},
	{Column{ColSourcePath, String},
		func(r *logs.RunRecord) Value { return StringVal(r.SourcePath) },
		func(r *logs.RunRecord, c *column, i int) { r.SourcePath = c.strAt(i) }},
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
	for _, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("statsdb: node row with empty name")
		}
	}
	return nodesTable.Insert(db, nodes...)
}

// EnsureRunsTable finds or creates the runs table, indexing the columns
// the factory's common queries probe: forecast name, code version, and
// node. A runs table laid out other than RunsSchema is an error.
func EnsureRunsTable(db *DB) (*Table, error) {
	return db.declare(RunsTableName, runsSchema, "forecast", "code_version", "node")
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
// provenance column.
func UpsertRuns(db *DB, records []*logs.RunRecord, harvestedAt float64) (*Table, UpsertStats, error) {
	var stats UpsertStats
	t, err := EnsureRunsTable(db)
	if err != nil {
		return nil, stats, err
	}
	// The harvester upserts one log per call: the row and the ids of the
	// rows sharing its forecast (one per day harvested) stay on the stack
	// when they fit.
	var rowBuf [24]Value
	var sameBuf [64]int32
	row, same := slices.Grow(rowBuf[:0], len(runFields))[:len(runFields)], sameBuf[:0]
	fi, di, si := t.schema.Index("forecast"), t.schema.Index("day"), t.schema.Index("start")
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return nil, stats, fmt.Errorf("statsdb: load runs: %w", err)
		}
		for i := range runFields {
			if get := runFields[i].get; get != nil {
				row[i] = get(r)
			} else {
				row[i] = FloatVal(harvestedAt)
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
// monitor's history seed) can feed from a harvested database. A runs
// table laid out other than RunsSchema is an error. The records are
// allocated as one block.
//
// Records come in (forecast, year, day) order, like logs.Crawl; rows
// that tie on all three (a rerun at another start) keep their row order,
// which for a harvested table is harvest order.
func ReadRuns(db *DB) ([]*logs.RunRecord, error) {
	t := db.Table(RunsTableName)
	if t == nil {
		return nil, nil
	}
	if err := t.checkLayout(runsSchema); err != nil {
		return nil, err
	}
	recs := make([]logs.RunRecord, t.n)
	out := make([]*logs.RunRecord, t.n)
	for i, row := range runOrder(t) {
		rec := &recs[i]
		for ci := range runFields {
			if set := runFields[ci].set; set != nil {
				set(rec, &t.cols[ci], int(row))
			}
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("statsdb: read runs row %d: %w", row, err)
		}
		out[i] = rec
	}
	return out, nil
}

// runOrder returns the runs table's row ids in (forecast, year, day, row)
// order. It ranks the forecast dictionary once, buckets the rows by rank,
// and sorts each bucket: one forecast's rows, which a harvest appends
// nearly in day order.
func runOrder(t *Table) []int32 {
	ids := make([]int32, t.n)
	fi, yi, di := t.schema.Index("forecast"), t.schema.Index("year"), t.schema.Index("day")
	fc, years, days := &t.cols[fi], t.cols[yi].ints, t.cols[di].ints
	byName := make([]uint32, len(fc.dict))
	for code := range byName {
		byName[code] = uint32(code)
	}
	slices.SortFunc(byName, func(a, b uint32) int { return strings.Compare(fc.dict[a], fc.dict[b]) })
	rank := make([]int32, len(fc.dict))
	for r, code := range byName {
		rank[code] = int32(r)
	}
	// next[r] is where rank r's next row goes: the counts' running sum.
	next := make([]int32, len(fc.dict)+1)
	for _, code := range fc.codes {
		next[rank[code]+1]++
	}
	for r := 1; r < len(next); r++ {
		next[r] += next[r-1]
	}
	for row, code := range fc.codes {
		r := rank[code]
		ids[next[r]] = int32(row)
		next[r]++
	}
	// next[r] is now where rank r's bucket ends.
	start := int32(0)
	for _, end := range next[:len(fc.dict)] {
		slices.SortFunc(ids[start:end], func(a, b int32) int {
			return cmp.Or(cmp.Compare(years[a], years[b]), cmp.Compare(days[a], days[b]), cmp.Compare(a, b))
		})
		start = end
	}
	return ids
}
