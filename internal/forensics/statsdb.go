package forensics

import (
	"fmt"
	"sort"

	"repro/internal/statsdb"
)

// The forensics layer's table names. Both join with the runs, spans, and
// node_usage tables on (forecast, day) and node.
const (
	BlameTableName = "lateness_blame"
	PathsTableName = "critical_paths"
)

// pathRow is one critical_paths row: a critical-path segment keyed by
// its run, ordered by seq within the run.
type pathRow struct {
	Forecast string `db:"forecast"`
	Day      int    `db:"day"`
	Segment
	Duration float64 `db:"duration"`
}

// lateness_blame holds one row per analyzed run, carrying the full
// decomposition; critical_paths one row per critical-path segment.
var (
	blameTable = statsdb.NewTypedTable[RunBlame](BlameTableName, "forecast", "day")
	pathsTable = statsdb.NewTypedTable[pathRow](PathsTableName, "forecast")
)

// LoadReport persists one pass's results into the lateness_blame and
// critical_paths tables (created when missing). One pass analyzes a whole
// campaign, so load each report once; the CLI report and /api/forensics
// both read these rows back via ReadReport.
func LoadReport(db *statsdb.DB, rep *Report) error {
	var paths []pathRow
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Forecast == "" {
			return fmt.Errorf("forensics: blame row with empty forecast")
		}
		for _, s := range r.Path {
			paths = append(paths, pathRow{Forecast: r.Forecast, Day: r.Day, Segment: s, Duration: s.Duration()})
		}
	}
	if _, err := blameTable.Insert(db, rep.Runs...); err != nil {
		return err
	}
	_, err := pathsTable.Insert(db, paths...)
	return err
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI report, the JSON endpoint, and
// any later analysis all derive from the same statsdb rows. Day
// aggregates are recomputed from the run rows. Returns an empty report
// when the tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	if db.Table(BlameTableName) == nil {
		return &Report{}, nil
	}
	runs, err := blameTable.Read(db)
	if err != nil {
		return nil, err
	}
	rows, err := pathsTable.Read(db)
	if err != nil {
		return nil, err
	}
	paths := make(map[string][]Segment)
	for _, p := range rows {
		key := runKey(p.Forecast, p.Day)
		paths[key] = append(paths[key], p.Segment)
	}
	for i := range runs {
		r := &runs[i]
		p := paths[runKey(r.Forecast, r.Day)]
		sort.Slice(p, func(a, b int) bool { return p[a].Seq < p[b].Seq })
		r.Path = p
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].Day != runs[j].Day {
			return runs[i].Day < runs[j].Day
		}
		return runs[i].Forecast < runs[j].Forecast
	})
	return &Report{Runs: runs, Days: aggregateDays(runs)}, nil
}
