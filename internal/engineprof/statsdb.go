// Schema v6: the engine observatory's persisted state. engine_profile
// holds one row per scheduling label with its counters, wall-clock
// accumulators and cost histogram; engine_queue_depth holds the
// pending-queue-depth timeline. `foreman -engineprof`, /api/engine and
// the factory's campaign-end summary all render a Report read back from
// these rows, so the surfaces cannot disagree.

package engineprof

import (
	"fmt"
	"sort"

	"repro/internal/statsdb"
)

// Table names added by the schema v6 migration.
const (
	ProfileTableName = "engine_profile"
	DepthTableName   = "engine_queue_depth"
)

// depthRow is one engine_queue_depth row: a depth point at its position
// in the timeline.
type depthRow struct {
	Seq int `db:"seq"`
	DepthPoint
}

// engine_profile holds one row per scheduling label, its cost histogram
// comma-joined in wall_hist; engine_queue_depth the depth timeline in
// sample order.
var (
	profileTable = statsdb.NewTypedTable[LabelReport](ProfileTableName, "label")
	depthTable   = statsdb.NewTypedTable[depthRow](DepthTableName)
)

// Migrations returns the engine observatory's schema migrations: v6
// creates the engine_profile and engine_queue_depth tables. Combine
// with harvest.Migrations() (v1, v2), usage.Migrations() (v3),
// forensics.Migrations() (v4) and spc.Migrations() (v5); Migrate tracks
// each independently.
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{statsdb.TableMigration(6, "engine-observatory-tables", profileTable, depthTable)}
}

// LoadReport persists one observatory snapshot into the engine_profile
// and engine_queue_depth tables (created via the v6 migration when
// missing). One snapshot covers a whole campaign, so load each report
// once.
func LoadReport(db *statsdb.DB, rep *Report) error {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return err
	}
	for _, l := range rep.Labels {
		if l.Label == "" {
			return fmt.Errorf("engineprof: label report with empty label")
		}
	}
	depth := make([]depthRow, len(rep.Depth))
	for i, p := range rep.Depth {
		depth[i] = depthRow{i, p}
	}
	if _, err := profileTable.Insert(db, rep.Labels...); err != nil {
		return err
	}
	_, err := depthTable.Insert(db, depth...)
	return err
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI tables, the JSON endpoint
// and the dashboard panel all derive from the same statsdb rows.
// Returns an empty report when the tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	rep := &Report{}
	labels, err := profileTable.Read(db)
	if err != nil {
		return nil, err
	}
	rep.Labels = labels
	sortLabels(rep.Labels)
	depth, err := depthTable.Read(db)
	if err != nil {
		return nil, err
	}
	// Rows normally come back in insertion order, but the timeline's
	// meaning depends on order, so honor the explicit seq column.
	sort.SliceStable(depth, func(i, j int) bool { return depth[i].Seq < depth[j].Seq })
	for _, d := range depth {
		rep.Depth = append(rep.Depth, d.DepthPoint)
	}
	return rep, nil
}
