package monitor

import (
	"slices"
	"testing"

	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
)

// attachSpec builds a small forecast spec with the given deadline
// (seconds after midnight).
func attachSpec(name string, deadline float64) *forecast.Spec {
	s := forecast.NewSpec(name, "r", 960, 10000, 2)
	s.StartOffset = 3600
	s.Deadline = deadline
	return s
}

// TestMonitorAttachedToCampaign runs a real campaign with the monitor
// attached: one forecast with an impossible deadline (1 s after
// midnight, before its own 1 h input constraint) must be tracked late
// with a deadline alert every day; one with an end-of-day deadline must
// land on time.
func TestMonitorAttachedToCampaign(t *testing.T) {
	tel := telemetry.New()
	c, err := factory.New(factory.Config{
		Days: 3,
		Forecasts: []factory.Assignment{
			{Spec: attachSpec("f-tight", 1), Node: "fnode01"},
			{Spec: attachSpec("f-easy", 86400), Node: "fnode02"},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultOptions(), tel.Registry())
	m.Attach(c)
	c.Run()
	m.Finalize(c.Engine().Now())

	st := m.Status()
	if !st.Done {
		t.Error("status not marked done after Finalize")
	}
	if len(st.Runs) != 6 {
		t.Fatalf("tracked %d runs, want 6 (2 forecasts × 3 days)", len(st.Runs))
	}
	var late, onTime int
	for _, r := range st.Runs {
		switch {
		case r.Forecast == "f-tight" && r.State == RunLate:
			late++
		case r.Forecast == "f-easy" && r.State == RunOnTime:
			onTime++
		default:
			t.Errorf("run %s/%d in state %q", r.Forecast, r.Day, r.State)
		}
	}
	if late != 3 || onTime != 3 {
		t.Errorf("late=%d onTime=%d, want 3 and 3", late, onTime)
	}
	if len(st.Nodes) == 0 {
		t.Error("node utilization never captured by the tick")
	}

	// One deadline alert per late run, all still firing at campaign end.
	var deadlineAlerts int
	for _, a := range m.Alerts() {
		if a.Rule == "deadline" {
			deadlineAlerts++
			if a.Forecast != "f-tight" {
				t.Errorf("deadline alert for %q, want f-tight only", a.Forecast)
			}
		}
	}
	if deadlineAlerts != 3 {
		t.Errorf("deadline alerts = %d, want 3", deadlineAlerts)
	}

	rep := m.Report()
	if rep.Total.Runs != 6 || rep.Total.Late != 3 || rep.Total.OnTime != 3 {
		t.Errorf("report total = %+v", rep.Total)
	}
	if rep.Total.Attainment != 0.5 {
		t.Errorf("attainment = %v, want 0.5", rep.Total.Attainment)
	}
}

// TestRetiredForecastNotMissing retires one of two forecasts on day 4 of
// an 8-day campaign: the missing-run rule expects each day's roster, so
// the retired forecast's absence from days 4–8 is not a missing run.
func TestRetiredForecastNotMissing(t *testing.T) {
	tel := telemetry.New()
	c, err := factory.New(factory.Config{
		Days: 8,
		Forecasts: []factory.Assignment{
			{Spec: attachSpec("f-keep", 86400), Node: "fnode01"},
			{Spec: attachSpec("f-retire", 86400), Node: "fnode02"},
		},
		Events:    []factory.Event{factory.RemoveForecast{Day: 4, Forecast: "f-retire"}},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultOptions(), tel.Registry())
	m.Attach(c)
	c.Run()
	m.Finalize(c.Engine().Now())

	for _, a := range m.Alerts() {
		if a.Rule == "missing_run" {
			t.Errorf("missing_run alert: %s", a.Message)
		}
	}
	if got := len(m.Status().Runs); got != 8+3 {
		t.Errorf("tracked %d runs, want 11 (f-keep × 8, f-retire × 3)", got)
	}
}

// TestAlertsQueryableViaSQL checks the foreman -sql path end to end:
// alerts persisted into statsdb join against the runs table.
func TestAlertsQueryableViaSQL(t *testing.T) {
	history := seedHistory("f", 10000, 10000, 10000)
	m := attachedMonitor(t, Options{}, nil, heavySpec("f", 7200))
	day4rec := completedRec("f", 4, day4+3600, 10000)
	m.ObserveRecord(runningRec("f", 4, day4+3600))
	m.ObserveRecord(day4rec)

	db := statsdb.NewDB()
	if _, err := statsdb.LoadRuns(db, append(history, day4rec)); err != nil {
		t.Fatal(err)
	}
	tab, err := LoadAlerts(db, m.Alerts())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(tab.IndexedColumns(), "rule") || !slices.Contains(tab.IndexedColumns(), "forecast") {
		t.Error("alerts table not indexed on rule and forecast")
	}

	res, err := db.Query("SELECT alerts.rule, alerts.severity, runs.walltime, runs.node " +
		"FROM alerts JOIN runs ON alerts.forecast = runs.forecast " +
		"WHERE alerts.day = 4 AND runs.day = 4 AND rule = 'deadline'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("joined rows = %d, want 1\n%+v", len(res.Rows), res.Rows)
	}
	row := res.Rows[0]
	if row[0].String() != "deadline" || row[1].String() != "critical" {
		t.Errorf("row = %v, want the critical deadline alert", row)
	}
	if row[2].Float() != 10000 {
		t.Errorf("joined walltime = %v, want 10000", row[2].Float())
	}

	// Aggregates work over the alerts table like any other.
	res, err = db.Query("SELECT rule, COUNT(*) FROM alerts GROUP BY rule ORDER BY rule")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no alert rows grouped")
	}
}

// TestObserveSnapshotRefinesETA drives a campaign halfway, feeds the
// monitor a snapshot, and checks progress-based ETA refinement.
func TestObserveSnapshotRefinesETA(t *testing.T) {
	c, err := factory.New(factory.Config{
		Days: 1,
		Forecasts: []factory.Assignment{
			{Spec: attachSpec("f", 86400), Node: "fnode01"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := testMonitor(Options{})
	c.AddRunLogHook(m.ObserveRecord)
	c.Prepare()
	c.Engine().RunUntil(5000) // mid-run: the ~2800 s run launched at 3600
	snap := c.Snapshot()
	if len(snap.Active) != 1 {
		t.Fatalf("active = %+v, want the one run", snap.Active)
	}
	m.ObserveSnapshot(snap, []NodeStatus{{Name: "fnode01", CPUs: 2, Utilization: 0.5}})

	st := m.Status()
	if len(st.Runs) != 1 {
		t.Fatalf("runs = %+v", st.Runs)
	}
	r := st.Runs[0]
	if r.Progress <= 0 || r.Progress >= 1 {
		t.Errorf("progress = %v, want mid-run fraction", r.Progress)
	}
	if r.ETA <= snap.Now {
		t.Errorf("ETA = %v, want extrapolation past now %v", r.ETA, snap.Now)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Utilization != 0.5 {
		t.Errorf("nodes = %+v", st.Nodes)
	}
	c.Finish()
}

// TestLoadAlertsExtends checks incremental loads extend the table.
func TestLoadAlertsExtends(t *testing.T) {
	db := statsdb.NewDB()
	a := Alert{ID: 1, Rule: "deadline", Severity: SevCritical, State: StateFiring,
		Forecast: "f", Day: 1, Node: "n", Message: "m", FiredAt: 10}
	if _, err := LoadAlerts(db, []Alert{a}); err != nil {
		t.Fatal(err)
	}
	b := a
	b.ID = 2
	tab, err := LoadAlerts(db, []Alert{b})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Errorf("table len = %d, want 2", tab.Len())
	}
}

// Ensure a record stream that resembles the factory's (running then
// completed at distinct times) keeps the monitor's clock monotonic.
func TestClockMonotonic(t *testing.T) {
	m := testMonitor(Options{})
	m.ObserveRecord(runningRec("f", 1, 3600))
	m.ObserveRecord(completedRec("f", 1, 3600, 5000))
	if now := m.Status().Now; now != 8600 {
		t.Errorf("now = %v, want 8600 (the completion instant)", now)
	}
	m.ObserveRecord(&logs.RunRecord{Forecast: "g", Day: 1, Node: "n", Status: logs.StatusRunning, Start: 4000})
	if now := m.Status().Now; now != 8600 {
		t.Errorf("now = %v after an older record, want clock to hold at 8600", now)
	}
}
