package statsdb

import (
	"fmt"
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
func LoadSpans(db *DB, spans []telemetry.Span) (*Table, error) {
	t := db.Table(SpansTableName)
	if t == nil {
		var err error
		t, err = db.CreateTable(SpansTableName, SpansSchema())
		if err != nil {
			return nil, err
		}
		for _, col := range []string{"id", "cat", "track"} {
			if err := t.CreateIndex(col); err != nil {
				return nil, err
			}
		}
	}
	idc := t.schema.Index("id")
	var row []Value
	var same []int32
	for _, s := range spans {
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
		row = append(row[:0], IntVal(s.ID), IntVal(s.Parent), StringVal(s.Cat), StringVal(s.Name), StringVal(s.Track),
			FloatVal(s.Start), FloatVal(s.End), FloatVal(s.End-s.Start), StringVal(s.Args["forecast"]),
			IntVal(int64(day)), StringVal(node), BoolVal(s.Args["interrupted"] == "true"))
		if same = t.lookupRows(same[:0], idc, IntVal(s.ID)); len(same) > 0 {
			if err := t.Update(int(same[0]), row); err != nil {
				return nil, err
			}
		} else if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}
