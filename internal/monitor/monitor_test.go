package monitor

import (
	"math"
	"testing"

	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/telemetry"
)

// day4 is midnight of day 4 in campaign seconds (StartDay 1).
const day4 = 3 * 86400.0

// completedRec builds a completed run record.
func completedRec(forecastName string, day int, start, walltime float64) *logs.RunRecord {
	return &logs.RunRecord{
		Forecast: forecastName, Region: "r", Year: 2005, Day: day, Node: "fnode01",
		CodeVersion: "v1", CodeFactor: 1, MeshName: "m", MeshSides: 10000, Timesteps: 960,
		Start: start, End: start + walltime, Walltime: walltime,
		Status: logs.StatusCompleted, Products: 2,
	}
}

// runningRec builds a launch record.
func runningRec(forecastName string, day int, start float64) *logs.RunRecord {
	r := completedRec(forecastName, day, start, 0)
	r.Status = logs.StatusRunning
	r.End = 0
	r.Walltime = 0
	return r
}

// seedHistory returns n completed runs of forecastName on days 1..n with
// the given walltimes (len(walltimes) == n), launched at 1h after
// midnight.
func seedHistory(forecastName string, walltimes ...float64) []*logs.RunRecord {
	recs := make([]*logs.RunRecord, len(walltimes))
	for i, wt := range walltimes {
		recs[i] = completedRec(forecastName, i+1, float64(i)*86400+3600, wt)
	}
	return recs
}

// observeHistory feeds completed records for earlier days through the
// monitor, as an attached campaign's run-log hook would.
func observeHistory(m *Monitor, recs []*logs.RunRecord) {
	for _, r := range recs {
		m.ObserveRecord(r)
	}
}

func testMonitor(opts Options) *Monitor {
	return New(opts, telemetry.NewRegistry())
}

// heavySpec is a forecast due deadline seconds after midnight whose spec
// work model predicts a ~10,000 s run (9,999 s) on a speed-1 node: the
// launch ETA of a run with no history.
func heavySpec(name string, deadline float64) *forecast.Spec {
	s := forecast.NewSpec(name, "r", 960, 42650, 2)
	s.Deadline = deadline
	return s
}

// attachedMonitor attaches a monitor to an unrun 3-day campaign on the
// default plant (2-CPU, speed-1 nodes) whose forecasts are specs: the
// specs give each forecast its deadline and a first run its launch ETA.
// Tests then drive the monitor with records and snapshots as the
// campaign would. reg may be nil.
func attachedMonitor(t *testing.T, opts Options, reg *telemetry.Registry, specs ...*forecast.Spec) *Monitor {
	t.Helper()
	var forecasts []factory.Assignment
	for _, s := range specs {
		forecasts = append(forecasts, factory.Assignment{Spec: s, Node: "fnode01"})
	}
	c, err := factory.New(factory.Config{Days: 3, Forecasts: forecasts})
	if err != nil {
		t.Fatal(err)
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := New(opts, reg)
	m.Attach(c)
	return m
}

// findAlert returns the first alert matching rule, or nil.
func findAlert(alerts []Alert, rule string) *Alert {
	for i := range alerts {
		if alerts[i].Rule == rule {
			return &alerts[i]
		}
	}
	return nil
}

// TestAlertEngine is the table-driven rule test: each case feeds a
// scripted sequence of run records and clock ticks through the monitor
// and checks the resulting alert history.
func TestAlertEngine(t *testing.T) {
	cases := []struct {
		name  string
		spec  *forecast.Spec
		drive func(m *Monitor)
		check func(t *testing.T, m *Monitor)
	}{
		{
			// A first run whose spec-model ETA (~10,000 s) overshoots a
			// tight deadline: the predicted miss fires at launch — before
			// the run ends — and escalates to an actual (critical) miss at
			// completion.
			name: "deadline miss predicted before it occurs",
			spec: heavySpec("f", 7200), // 2h after midnight
			drive: func(m *Monitor) {
				m.ObserveRecord(runningRec("f", 4, day4+3600))
				// Mid-flight, before the deadline passes.
				m.ObserveSnapshot(factory.Snapshot{Now: day4 + 5400}, nil)
				m.ObserveRecord(completedRec("f", 4, day4+3600, 10000))
			},
			check: func(t *testing.T, m *Monitor) {
				alerts := m.Alerts()
				a := findAlert(alerts, "deadline")
				if a == nil {
					t.Fatalf("no deadline alert in %+v", alerts)
				}
				if a.FiredAt != day4+3600 {
					t.Errorf("alert fired at %v, want launch time %v (before the miss occurred)",
						a.FiredAt, day4+3600)
				}
				end := day4 + 3600 + 10000
				if a.FiredAt >= end {
					t.Errorf("predicted alert fired at %v, not before the run ended at %v", a.FiredAt, end)
				}
				// After completion the alert is an actual critical miss.
				if a.Predicted || a.Severity != SevCritical || !a.Firing() {
					t.Errorf("after the miss occurred: predicted=%v severity=%v state=%v, want actual critical firing",
						a.Predicted, a.Severity, a.State)
				}
				st := m.Status()
				if st.Summary.Late != 1 {
					t.Errorf("late = %d, want 1", st.Summary.Late)
				}
				if got := m.runs["f/4"].State; got != RunLate {
					t.Errorf("run state = %q, want %q", got, RunLate)
				}
			},
		},
		{
			// The ETA predicts a miss, but the run lands in time: the
			// predicted alert resolves instead of escalating.
			name: "predicted miss resolved by on-time landing",
			spec: heavySpec("f", 7200),
			drive: func(m *Monitor) {
				m.ObserveRecord(runningRec("f", 4, day4+3600))
				m.ObserveRecord(completedRec("f", 4, day4+3600, 3000)) // lands at +4600 < 7200
			},
			check: func(t *testing.T, m *Monitor) {
				a := findAlert(m.Alerts(), "deadline")
				if a == nil {
					t.Fatal("predicted alert never fired")
				}
				if !a.Predicted || a.Firing() || a.ResolvedAt != day4+3600+3000 {
					t.Errorf("alert = %+v, want predicted, resolved at landing", a)
				}
				if got := m.runs["f/4"].State; got != RunOnTime {
					t.Errorf("run state = %q, want %q", got, RunOnTime)
				}
			},
		},
		{
			// A run that doubles its walltime against the trailing median
			// trips the regression rule; the next normal run resolves it.
			name: "runtime regression against trailing history",
			spec: attachSpec("f", 86400),
			drive: func(m *Monitor) {
				observeHistory(m, seedHistory("f", 980, 1000, 1010, 990, 1000, 1020, 1000))
				m.ObserveRecord(completedRec("f", 8, 7*86400+3600, 2000))
				m.ObserveRecord(completedRec("f", 9, 8*86400+3600, 1000))
			},
			check: func(t *testing.T, m *Monitor) {
				a := findAlert(m.Alerts(), "runtime_regression")
				if a == nil {
					t.Fatal("no regression alert")
				}
				if a.Value != 2000 {
					t.Errorf("alert value = %v, want the regressed walltime 2000", a.Value)
				}
				if a.Threshold != 1.5*1000 {
					t.Errorf("alert threshold = %v, want 1.5 × median 1000", a.Threshold)
				}
				if a.Firing() {
					t.Error("regression alert still firing after a normal run")
				}
				if a.ResolvedAt != 8*86400+3600+1000 {
					t.Errorf("resolved at %v, want the normal run's end", a.ResolvedAt)
				}
			},
		},
		{
			// Too little history: the regression rule stays silent.
			name: "regression needs MinSamples of history",
			spec: attachSpec("f", 86400),
			drive: func(m *Monitor) {
				observeHistory(m, seedHistory("f", 1000, 1000))
				m.ObserveRecord(completedRec("f", 3, 2*86400+3600, 9000))
			},
			check: func(t *testing.T, m *Monitor) {
				if a := findAlert(m.Alerts(), "runtime_regression"); a != nil {
					t.Errorf("regression fired on 2 samples: %+v", a)
				}
			},
		},
		{
			// A run executing past its deadline is a real miss even before
			// it completes, and even though its ETA said it would land in
			// time.
			name: "still-running past deadline is an actual miss",
			spec: attachSpec("f", 7200),
			drive: func(m *Monitor) {
				m.ObserveRecord(runningRec("f", 4, day4+3600))             // spec-model ETA +2,344 s: on time
				m.ObserveSnapshot(factory.Snapshot{Now: day4 + 8000}, nil) // clock passes the deadline
			},
			check: func(t *testing.T, m *Monitor) {
				a := findAlert(m.Alerts(), "deadline")
				if a == nil {
					t.Fatal("no deadline alert for a run executing past its deadline")
				}
				if a.Predicted || a.Severity != SevCritical || !a.Firing() {
					t.Errorf("alert = %+v, want actual critical firing", a)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := attachedMonitor(t, Options{}, nil, tc.spec)
			tc.drive(m)
			tc.check(t, m)
		})
	}
}

func TestThresholdRuleLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{
		Thresholds: []ThresholdRule{{
			Name: "wip_high", Metric: "factory_wip_carryover", Above: 2, Severity: SevWarning,
		}},
	}, reg)
	g := reg.Gauge("factory_wip_carryover", nil)

	g.Set(5)
	m.ObserveSnapshot(factory.Snapshot{Now: 1000}, nil)
	firing := m.FiringAlerts()
	if len(firing) != 1 || firing[0].Rule != "wip_high" || firing[0].Value != 5 {
		t.Fatalf("firing = %+v, want one wip_high alert at value 5", firing)
	}

	g.Set(1)
	m.ObserveSnapshot(factory.Snapshot{Now: 2000}, nil)
	if n := len(m.FiringAlerts()); n != 0 {
		t.Fatalf("still %d firing after the gauge recovered", n)
	}
	all := m.Alerts()
	if len(all) != 1 || all[0].State != StateResolved || all[0].ResolvedAt != 2000 {
		t.Fatalf("history = %+v, want one alert resolved at t=2000", all)
	}
}

func TestMonitorSelfMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := attachedMonitor(t, Options{}, reg, heavySpec("f", 7200))
	m.ObserveRecord(runningRec("f", 4, day4+3600))
	m.ObserveRecord(completedRec("f", 4, day4+3600, 10000))

	if v := reg.Counter("monitor_predicted_misses_total", nil).Value(); v != 1 {
		t.Errorf("predicted misses = %v, want 1", v)
	}
	if v := reg.Counter("monitor_deadline_misses_total", nil).Value(); v != 1 {
		t.Errorf("deadline misses = %v, want 1", v)
	}
	if v := reg.Gauge("monitor_alerts_firing", nil).Value(); v != 1 {
		t.Errorf("alerts firing gauge = %v, want 1", v)
	}
}

func TestSLOReport(t *testing.T) {
	m := attachedMonitor(t, Options{}, nil, attachSpec("a", 7200), attachSpec("b", 86400))
	// a: one on-time (end 3600+1000 < 7200), one late (end 10000 > 7200).
	m.ObserveRecord(completedRec("a", 1, 3600, 1000))
	m.ObserveRecord(completedRec("a", 2, 86400+3600, 6400+3000))
	// b: one on-time.
	m.ObserveRecord(completedRec("b", 1, 3600, 2000))

	rep := m.Report()
	if len(rep.Forecasts) != 2 {
		t.Fatalf("forecasts in report = %d, want 2", len(rep.Forecasts))
	}
	a := rep.Forecasts[0]
	if a.Forecast != "a" || a.Runs != 2 || a.OnTime != 1 || a.Late != 1 {
		t.Errorf("a = %+v, want 2 runs, 1 on-time, 1 late", a)
	}
	if a.Attainment != 0.5 {
		t.Errorf("a attainment = %v, want 0.5", a.Attainment)
	}
	if want := (86400 + 3600 + 9400) - (86400 + 7200); math.Abs(a.WorstLateness-float64(want)) > 1e-9 {
		t.Errorf("a worst lateness = %v, want %d", a.WorstLateness, want)
	}
	if rep.Total.Runs != 3 || rep.Total.OnTime != 2 || rep.Total.Late != 1 {
		t.Errorf("total = %+v", rep.Total)
	}
	if got := rep.String(); got == "" {
		t.Error("report renders empty")
	}
}

func TestDroppedRunAlert(t *testing.T) {
	m := testMonitor(Options{})
	rec := runningRec("f", 1, 3600)
	rec.Status = logs.StatusDropped
	m.ObserveRecord(rec)
	a := findAlert(m.Alerts(), "run_dropped")
	if a == nil || a.Severity != SevWarning {
		t.Fatalf("alerts = %+v, want a run_dropped warning", m.Alerts())
	}
	if got := m.Status().Summary.Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}
