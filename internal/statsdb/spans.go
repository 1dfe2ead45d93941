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

// SpansSchema returns the schema of the trace-span table: one tuple per
// telemetry span, so a campaign's timing can be probed with the same SQL
// used for run statistics (e.g. mean simulation walltime per node, or the
// rsync lag behind the producing run).
func SpansSchema() Schema {
	return Schema{
		{Name: "id", Type: Int},
		{Name: "parent", Type: Int},
		{Name: "cat", Type: String},
		{Name: "name", Type: String},
		{Name: "track", Type: String},
		{Name: "start", Type: Float},
		{Name: "end", Type: Float},
		{Name: "duration", Type: Float},
		{Name: "forecast", Type: String},
		{Name: "day", Type: Int},
		{Name: "node", Type: String},
		{Name: "interrupted", Type: Bool},
	}
}

// LoadSpans creates (or extends) the spans table from exported trace
// spans (telemetry.Tracer.Spans), indexing id, cat, and track. The
// forecast, day, and node columns are lifted from the span annotations of
// the same names (zero values when absent); interrupted marks spans
// closed by EndOpen rather than a normal end.
//
// Loads are idempotent the way UpsertRuns is: rows are keyed on the span
// id, so re-loading the same trace (a monitor flush followed by an
// end-of-campaign flush, or a harvester re-pass) updates rows in place
// instead of duplicating them. Span ids are only unique within one
// tracer; feed one statsdb spans table from one tracer.
//
// A span whose id exceeds every id in the table and every id earlier in
// the call is new, and each run of new spans is appended as one batch. A
// tracer hands out ids 1, 2, 3, …, so a fresh table takes the whole trace
// that way. Any other span is looked up by id and updated in place, or
// inserted. The table ends up as loading the spans one at a time would
// leave it. A load either adds every span or returns an error and leaves
// the table as it was: a bad span (a non-integer day annotation, a NaN
// start, end or duration) fails it before any row changes.
func LoadSpans(db *DB, spans []telemetry.Span) (*Table, error) {
	t, err := db.declare(SpansTableName, SpansSchema(), "id", "cat", "track")
	if err != nil {
		return nil, err
	}
	idc := t.schema.Index("id")
	top := int64(math.MinInt64) // the highest id in the table or earlier in the call
	if ids := t.cols[idc].ints; len(ids) > 0 {
		top = slices.Max(ids)
	}
	var row []Value
	if !newAbove(spans, top) {
		// More than one step: check every span first. A lone batch
		// undoes itself on error.
		for i := range spans {
			if row, err = spanRow(row[:0], &spans[i]); err == nil {
				err = t.check(row)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	var same []int32
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].ID > top {
			top = spans[j].ID
			j++
		}
		if j > i { // a run of new spans: one batch
			batch := spans[i:j]
			err = t.appendRows(len(batch), func(row []Value, r int) ([]Value, error) { return spanRow(row, &batch[r]) })
			i = j
		} else if row, err = spanRow(row[:0], &spans[i]); err == nil {
			if same = t.lookupRows(same[:0], idc, IntVal(spans[i].ID)); len(same) > 0 {
				err = t.Update(int(same[0]), row)
			} else {
				err = t.Insert(row)
			}
			i++
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newAbove reports whether every span's id exceeds top and the ids before
// it: whether the whole load is one batch.
func newAbove(spans []telemetry.Span, top int64) bool {
	for i := range spans {
		if spans[i].ID <= top {
			return false
		}
		top = spans[i].ID
	}
	return true
}

// spanRow appends span s's row to dst, lifting the forecast, day and node
// columns from its annotations.
func spanRow(dst []Value, s *telemetry.Span) ([]Value, error) {
	day := 0
	if d := s.Args["day"]; d != "" {
		n, err := strconv.Atoi(d)
		if err != nil {
			return nil, fmt.Errorf("statsdb: span %d (%s) has non-integer day %q", s.ID, s.Name, d)
		}
		day = n
	}
	node := s.Args["node"]
	if node == "" {
		node = s.Track
	}
	return append(dst, IntVal(s.ID), IntVal(s.Parent), StringVal(s.Cat), StringVal(s.Name), StringVal(s.Track),
		FloatVal(s.Start), FloatVal(s.End), FloatVal(s.End-s.Start), StringVal(s.Args["forecast"]),
		IntVal(int64(day)), StringVal(node), BoolVal(s.Args["interrupted"] == "true")), nil
}
