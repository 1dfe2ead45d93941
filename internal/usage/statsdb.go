package usage

import (
	"fmt"

	"repro/internal/statsdb"
)

// Table names added by the schema v3 migration. Both tables join with
// runs: node_usage on node (and time overlap), drift on (forecast, day).
const (
	NodeUsageTableName = "node_usage"
	DriftTableName     = "drift"
)

// node_usage holds one row per node×interval sample; drift one row per
// planned run with an observed completion.
var (
	samplesTable = statsdb.NewTypedTable[Sample](NodeUsageTableName, "node")
	driftTable   = statsdb.NewTypedTable[Drift](DriftTableName, "forecast")
)

// Migrations returns the usage layer's schema migrations: v3 creates the
// node_usage and drift tables with their lookup indexes. Combine with
// harvest.Migrations() (v1, v2) when building a full database; Migrate
// tracks each version independently, so applying v3 to a database that
// already carries v1+v2 only adds the new tables.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{statsdb.TableMigration(3, "usage-tables", samplesTable, driftTable)}
}

// LoadSamples appends timeline samples into the node_usage table,
// creating it (via the v3 migration) if missing.
func LoadSamples(db *statsdb.DB, samples []Sample) (*statsdb.Table, error) {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return nil, err
	}
	for _, s := range samples {
		if s.Node == "" {
			return nil, fmt.Errorf("usage: sample with empty node")
		}
	}
	return samplesTable.Insert(db, samples...)
}

// LoadDrift appends drift records into the drift table, creating it (via
// the v3 migration) if missing.
func LoadDrift(db *statsdb.DB, ds []Drift) (*statsdb.Table, error) {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return nil, err
	}
	for _, d := range ds {
		if d.Run == "" {
			return nil, fmt.Errorf("usage: drift record with empty run")
		}
	}
	return driftTable.Insert(db, ds...)
}
