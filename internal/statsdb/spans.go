package statsdb

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/telemetry"
)

// SpansTableName is the conventional name of the trace-span table.
const SpansTableName = "spans"

// spanRow is one spans row: one tuple per telemetry span, so a campaign's
// timing can be probed with the same SQL used for run statistics (e.g.
// mean simulation walltime per node, or the rsync lag behind the
// producing run).
type spanRow struct {
	ID          int64   `db:"id"`
	Parent      int64   `db:"parent"`
	Cat         string  `db:"cat"`
	Name        string  `db:"name"`
	Track       string  `db:"track"`
	Start       float64 `db:"start"`
	End         float64 `db:"end"`
	Duration    float64 `db:"duration"`
	Forecast    string  `db:"forecast"`
	Day         int     `db:"day"`
	Node        string  `db:"node"`
	Interrupted bool    `db:"interrupted"`
}

var spansTable = NewTypedTable[spanRow](SpansTableName, "id", "cat", "track")

// LoadSpans creates (or extends) the spans table from exported trace
// spans (telemetry.Tracer.Spans), indexing id, cat, and track. The
// forecast, day, and node columns are lifted from the span annotations of
// the same names (zero values when absent; node falls back to the
// track); interrupted marks spans closed by EndOpen rather than a normal
// end.
//
// A load appends one trace, as one batch: each span's id must exceed
// every id in the table and every id earlier in the call, as a tracer's
// ids 1, 2, 3, … do. Span ids are only unique within one tracer; feed
// one statsdb spans table from one tracer. A load either adds every span
// or returns an error and leaves the table as it was: a span out of id
// order, a non-integer day annotation, or a start, end or duration that
// is not finite fails it before any row changes.
func LoadSpans(db *DB, spans []telemetry.Span) (*Table, error) {
	t, err := spansTable.declare(db)
	if err != nil {
		return nil, err
	}
	top := int64(math.MinInt64) // the highest id in the table or earlier in the call
	if ids := t.cols[t.schema.Index("id")].ints; len(ids) > 0 {
		top = slices.Max(ids)
	}
	var row spanRow
	err = t.appendRows(len(spans), func(dst []Value, i int) ([]Value, error) {
		s := &spans[i]
		if s.ID <= top {
			return nil, fmt.Errorf("statsdb: span %d (%s) is not above span %d: a load appends one trace in id order", s.ID, s.Name, top)
		}
		top = s.ID
		if err := row.lift(s); err != nil {
			return nil, err
		}
		return spansTable.encode(dst, &row)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// lift fills the row from span s, lifting the forecast, day and node
// columns from its annotations.
func (r *spanRow) lift(s *telemetry.Span) error {
	day := 0
	if d := s.Args["day"]; d != "" {
		n, err := strconv.Atoi(d)
		if err != nil {
			return fmt.Errorf("statsdb: span %d (%s) has non-integer day %q", s.ID, s.Name, d)
		}
		day = n
	}
	dur := s.End - s.Start
	if math.IsNaN(dur) || math.IsInf(dur, 0) {
		return fmt.Errorf("statsdb: span %d (%s) runs from %v to %v: not finite", s.ID, s.Name, s.Start, s.End)
	}
	node := s.Args["node"]
	if node == "" {
		node = s.Track
	}
	// Field by field: a composite literal would be built and then copied.
	r.ID, r.Parent, r.Cat, r.Name, r.Track = s.ID, s.Parent, s.Cat, s.Name, s.Track
	r.Start, r.End, r.Duration, r.Forecast = s.Start, s.End, dur, s.Args["forecast"]
	r.Day, r.Node, r.Interrupted = day, node, s.Args["interrupted"] == "true"
	return nil
}
