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
// harvester wrote the row (0 for a record it did not harvest) and the log
// it was parsed from.
const (
	ColHarvestedAt = "harvested_at"
	ColSourcePath  = "source_path"
)

// runsTable is the run-statistics table: one tuple per run execution, as
// harvested from run logs, declared by logs.RunRecord's tags, provenance
// columns last.
var runsTable = NewTypedTable[logs.RunRecord](RunsTableName, "forecast", "code_version", "node")

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
// node. A runs table laid out other than logs.RunRecord's tags is an
// error.
func EnsureRunsTable(db *DB) (*Table, error) { return runsTable.declare(db) }

// UpsertStats counts what one upsert batch did.
type UpsertStats struct {
	Inserted int
	Updated  int
}

// UpsertRuns inserts records into the runs table, replacing any existing
// row with the same (forecast, day, start) key — one run execution —
// instead of appending a duplicate. This is what makes re-harvesting the
// same logs (a crash-recovery re-scan, a running log superseded by its
// completed version) idempotent. Every column, harvested_at included,
// stores what the record holds. Every record is validated before the
// first write, so a call that refuses one adds none and leaves the table
// as it was.
func UpsertRuns(db *DB, records []*logs.RunRecord) (*Table, UpsertStats, error) {
	var stats UpsertStats
	t, err := EnsureRunsTable(db)
	if err != nil {
		return nil, stats, err
	}
	for _, r := range records {
		if err := r.Validate(); err != nil {
			return nil, stats, fmt.Errorf("statsdb: load runs: %w", err)
		}
	}
	// The harvester upserts one log per call: the row and the ids of the
	// rows sharing its forecast (one per day harvested) stay on the stack
	// when they fit.
	var rowBuf [24]Value
	var sameBuf [64]int32
	row, same := rowBuf[:0], sameBuf[:0]
	fi, di, si := t.schema.Index("forecast"), t.schema.Index("day"), t.schema.Index("start")
	for _, r := range records {
		if row, err = runsTable.encode(row[:0], r); err != nil {
			return nil, stats, err
		}
		id := -1
		same = t.lookupRows(same[:0], fi, StringVal(r.Forecast))
		for _, s := range same {
			if t.cols[di].intAt(int(s)) == int64(r.Day) && t.cols[si].floatAt(int(s)) == r.Start {
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
	t, _, err := UpsertRuns(db, records)
	return t, err
}

// ReadRuns converts the runs table back into run records — the inverse of
// UpsertRuns, so consumers built on []*logs.RunRecord (the estimator, the
// monitor's history seed) can feed from a harvested database. A runs
// table laid out other than logs.RunRecord's tags is an error. The
// records are allocated as one block.
//
// Records come in (forecast, year, day) order, like logs.Crawl; rows
// that tie on all three (a rerun at another start) keep their row order,
// which for a harvested table is harvest order.
func ReadRuns(db *DB) ([]*logs.RunRecord, error) {
	t := db.Table(RunsTableName)
	if t == nil {
		return nil, nil
	}
	if err := t.checkLayout(runsTable.schema); err != nil {
		return nil, err
	}
	recs := make([]logs.RunRecord, t.n)
	out := make([]*logs.RunRecord, t.n)
	for i, row := range runOrder(t) {
		rec := &recs[i]
		err := runsTable.decode(t, int(row), rec)
		if err == nil {
			err = rec.Validate()
		}
		if err != nil {
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
