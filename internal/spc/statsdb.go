// The SPC observatory's persisted state. control_points holds every
// charted observation with its verdict; changepoints holds the detected
// (and history-supplied) level shifts. `foreman -spc`, /api/spc, and the
// dashboard all render a Report read back from these rows, so the three
// surfaces cannot disagree.

package spc

import (
	"fmt"
	"sort"

	"repro/internal/statsdb"
)

// The SPC observatory's table names.
const (
	PointsTableName       = "control_points"
	ChangepointsTableName = "changepoints"
)

// pointRow is one control_points row: a charted observation keyed by
// (kind, subject, seq).
type pointRow struct {
	Kind    string `db:"kind"`
	Subject string `db:"subject"`
	Point
}

// changepointRow is one changepoints row: a detected or history-derived
// level shift of the (kind, subject) series.
type changepointRow struct {
	Kind    string `db:"kind"`
	Subject string `db:"subject"`
	Changepoint
}

var (
	pointsTable       = statsdb.NewTypedTable[pointRow](PointsTableName, "kind", "subject")
	changepointsTable = statsdb.NewTypedTable[changepointRow](ChangepointsTableName, "subject")
)

// LoadReport persists one observatory snapshot into the control_points
// and changepoints tables (created when missing). One snapshot covers a
// whole campaign, so load each report once.
func LoadReport(db *statsdb.DB, rep *Report) error {
	var points []pointRow
	var cps []changepointRow
	for i := range rep.Series {
		sr := &rep.Series[i]
		if sr.Kind == "" || sr.Subject == "" {
			return fmt.Errorf("spc: series with empty kind or subject")
		}
		for _, p := range sr.Points {
			points = append(points, pointRow{sr.Kind, sr.Subject, p})
		}
		for _, cp := range sr.Changepoints {
			cps = append(cps, changepointRow{sr.Kind, sr.Subject, cp})
		}
	}
	if _, err := pointsTable.Insert(db, points...); err != nil {
		return err
	}
	_, err := changepointsTable.Insert(db, cps...)
	return err
}

// ReadReport reconstructs a Report from the persisted tables — the
// replayable half of the pipeline: the CLI charts, the JSON endpoint,
// and the dashboard panel all derive from the same statsdb rows.
// Baselines, limits, and violation counts are recomputed from the
// latest judged point per series. Returns an empty report when the
// tables are absent.
func ReadReport(db *statsdb.DB) (*Report, error) {
	rep := &Report{}
	points, err := pointsTable.Read(db)
	if err != nil {
		return nil, err
	}
	cps, err := changepointsTable.Read(db)
	if err != nil {
		return nil, err
	}
	bySeries := make(map[seriesKey]*SeriesReport)
	var order []seriesKey
	series := func(kind, subject string) *SeriesReport {
		key := seriesKey{kind, subject}
		sr, ok := bySeries[key]
		if !ok {
			sr = &SeriesReport{Kind: kind, Subject: subject}
			bySeries[key] = sr
			order = append(order, key)
		}
		return sr
	}
	for _, r := range points {
		sr := series(r.Kind, r.Subject)
		sr.Points = append(sr.Points, r.Point)
	}
	for _, r := range cps {
		sr := series(r.Kind, r.Subject)
		sr.Changepoints = append(sr.Changepoints, r.Changepoint)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].kind != order[j].kind {
			return kindRank(order[i].kind) < kindRank(order[j].kind)
		}
		return order[i].subject < order[j].subject
	})
	for _, key := range order {
		sr := bySeries[key]
		sort.Slice(sr.Points, func(a, b int) bool { return sr.Points[a].Seq < sr.Points[b].Seq })
		sort.Slice(sr.Changepoints, func(a, b int) bool { return sr.Changepoints[a].Seq < sr.Changepoints[b].Seq })
		// Re-aggregate standing from the stored verdicts: the latest
		// judged point carries the live baseline and the sticky state.
		for i := range sr.Points {
			p := &sr.Points[i]
			if p.Out {
				sr.Violations++
			}
			if !p.Learning {
				sr.Center, sr.Sigma = p.Center, p.Sigma
				sr.UCL, sr.LCL = p.UCL, p.LCL
				sr.Out = p.Out
			}
		}
		rep.Series = append(rep.Series, *sr)
	}
	return rep, nil
}
