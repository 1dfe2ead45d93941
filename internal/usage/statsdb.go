package usage

import (
	"fmt"

	"repro/internal/statsdb"
)

// The usage layer's table names. Both tables join with runs: node_usage
// on node (and time overlap), drift on (forecast, day).
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

// LoadSamples appends timeline samples into the node_usage table,
// creating it if missing.
func LoadSamples(db *statsdb.DB, samples []Sample) (*statsdb.Table, error) {
	for _, s := range samples {
		if s.Node == "" {
			return nil, fmt.Errorf("usage: sample with empty node")
		}
	}
	return samplesTable.Insert(db, samples...)
}

// LoadDrift appends drift records into the drift table, creating it if
// missing.
func LoadDrift(db *statsdb.DB, ds []Drift) (*statsdb.Table, error) {
	for _, d := range ds {
		if d.Run == "" {
			return nil, fmt.Errorf("usage: drift record with empty run")
		}
	}
	return driftTable.Insert(db, ds...)
}
