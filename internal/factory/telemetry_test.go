package factory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/statsdb"
	"repro/internal/telemetry"
)

// telemetryCampaign runs a 2-day, 2-forecast campaign with collection on.
func telemetryCampaign(t *testing.T) (*Campaign, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	c, err := New(Config{
		Days: 2,
		Forecasts: []Assignment{
			{Spec: smallSpec("f1"), Node: "fnode01"},
			{Spec: smallSpec("f2"), Node: "fnode02"},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	return c, tel
}

func TestCampaignMetrics(t *testing.T) {
	_, tel := telemetryCampaign(t)
	reg := tel.Registry()

	if v := reg.Counter("factory_launches_total", telemetry.Labels{"forecast": "f1"}).Value(); v != 2 {
		t.Fatalf("f1 launches = %v, want 2", v)
	}
	if v := reg.Counter("factory_runs_completed_total", telemetry.Labels{"forecast": "f2"}).Value(); v != 2 {
		t.Fatalf("f2 completions = %v, want 2", v)
	}
	if v := reg.Gauge("factory_active_runs", nil).Value(); v != 0 {
		t.Fatalf("active runs at end = %v, want 0", v)
	}
	if n := reg.Histogram("factory_run_walltime_seconds", nil, nil).Count(); n != 4 {
		t.Fatalf("walltime observations = %d, want 4", n)
	}
	if v := reg.Counter("sim_events_fired_total", nil).Value(); v <= 0 {
		t.Fatalf("sim events = %v, want > 0", v)
	}
	if v := reg.Counter("workflow_master_polls_total", nil).Value(); v <= 0 {
		t.Fatalf("master polls = %v, want > 0", v)
	}
}

func TestCampaignSpanHierarchyAndChromeTrace(t *testing.T) {
	_, tel := telemetryCampaign(t)
	spans := tel.Trace().Spans()

	byCat := map[string]int{}
	byID := map[int64]telemetry.Span{}
	for _, s := range spans {
		byCat[s.Cat]++
		byID[s.ID] = s
	}
	if byCat["campaign"] != 1 || byCat["day"] != 2 || byCat["run"] != 4 || byCat["simulation"] != 4 {
		t.Fatalf("span census = %v, want 1 campaign, 2 days, 4 runs, 4 simulations", byCat)
	}
	if byCat["product"] == 0 {
		t.Fatalf("no product-task spans recorded")
	}
	// Every span is finished: closing the open ones again changes none.
	tel.Trace().EndOpen()
	for i, again := range tel.Trace().Spans() {
		if again.End != spans[i].End || len(again.Args) != len(spans[i].Args) {
			t.Fatalf("span %s (%s) left unfinished", again.Name, again.Cat)
		}
	}
	// Every span chains up to the campaign root.
	for _, s := range spans {
		cur := s
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s has dangling parent %d", s.Name, cur.Parent)
			}
			cur = p
		}
		if cur.Cat != "campaign" {
			t.Fatalf("span %s roots at %q, want the campaign span", s.Name, cur.Cat)
		}
	}

	// The exported trace is valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := tel.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

func TestCampaignSpansLoadIntoStatsdb(t *testing.T) {
	_, tel := telemetryCampaign(t)
	db := statsdb.NewDB()
	if _, err := statsdb.LoadSpans(db, tel.Trace().Spans()); err != nil {
		t.Fatal(err)
	}

	// The trace answers scheduling questions over SQL: which forecasts ran
	// and how long their runs took on each node.
	res, err := db.Query("SELECT forecast, COUNT(*), AVG(duration) FROM spans WHERE cat = 'run' GROUP BY forecast ORDER BY forecast ASC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 forecasts", res.Rows)
	}
	for i, want := range []string{"f1", "f2"} {
		row := res.Rows[i]
		if row[0].Str() != want || row[1].Int() != 2 {
			t.Fatalf("row %d = %v, want forecast %s with 2 runs", i, row, want)
		}
		if row[2].Float() <= 0 {
			t.Fatalf("%s mean run duration = %v, want > 0", want, row[2].Float())
		}
	}

	// Run spans line up with the nodes they were pinned to.
	for _, fc := range []struct{ name, node string }{{"f1", "fnode01"}, {"f2", "fnode02"}} {
		q := fmt.Sprintf("SELECT node FROM spans WHERE cat = 'run' AND forecast = '%s'", fc.name)
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if row[0].Str() != fc.node {
				t.Fatalf("%s ran on %s, want %s", fc.name, row[0].Str(), fc.node)
			}
		}
	}
}
