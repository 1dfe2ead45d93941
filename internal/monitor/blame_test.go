package monitor

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/forensics"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

func TestBlameShiftRule(t *testing.T) {
	m := testMonitor(Options{Blame: BlameShiftRule{MinLateness: 600, Severity: SevWarning}})

	m.ObserveBlame(1, "contention", 3000)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("first observed day must only set the baseline")
	}
	// Same dominant the next day: no shift.
	m.ObserveBlame(2, "contention", 2500)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("unchanged dominant fired an alert")
	}
	// A quiet day (below MinLateness) carries no signal.
	m.ObserveBlame(3, "failure", 100)
	if len(m.FiringAlerts()) != 0 {
		t.Fatal("sub-threshold day fired an alert")
	}
	// The dominant cause moves: assignable-cause alert.
	m.ObserveBlame(4, "failure", 4000)
	firing := m.FiringAlerts()
	if len(firing) != 1 {
		t.Fatalf("dominant shift fired %d alerts, want 1", len(firing))
	}
	a := firing[0]
	if a.Rule != "blame_shift" || a.Severity != SevWarning || a.Day != 4 {
		t.Errorf("alert = %+v", a)
	}
	// Steady again: the alert resolves.
	m.ObserveBlame(5, "failure", 3500)
	if len(m.FiringAlerts()) != 0 {
		t.Error("alert did not resolve once the dominant cause settled")
	}
	// Replayed or out-of-order days are ignored.
	m.ObserveBlame(2, "queue_wait", 9000)
	if len(m.FiringAlerts()) != 0 {
		t.Error("out-of-order day fired an alert")
	}
	// "none" days are skipped, not treated as a shift.
	m.ObserveBlame(6, "none", 9000)
	m.ObserveBlame(7, "failure", 3000)
	if len(m.FiringAlerts()) != 0 {
		t.Error("a no-blame day broke the baseline")
	}
}

func TestBlameShiftRuleDisabled(t *testing.T) {
	m := testMonitor(Options{})
	m.ObserveBlame(1, "contention", 5000)
	m.ObserveBlame(2, "failure", 5000)
	if len(m.FiringAlerts()) != 0 {
		t.Error("zero-value rule must be disabled")
	}
}

// TestForensicsEndpointServesPersistedReport is the issue's agreement
// check: /api/forensics serves exactly what ReadReport returns from the
// stats database — the same rows the foreman -blame report renders.
func TestForensicsEndpointServesPersistedReport(t *testing.T) {
	rep, err := forensics.Analyze(forensics.Input{
		Spans: []telemetry.Span{
			{ID: 1, Cat: "run", Name: "f1", Track: "n1", Start: 100, End: 700,
				Args: map[string]string{"forecast": "f1", "day": "1", "node": "n1"}},
			{ID: 2, Parent: 1, Cat: "simulation", Name: "sim f1", Track: "n1", Start: 150, End: 700},
		},
		Plan: []forensics.PlanEntry{
			{Forecast: "f1", Day: 1, Node: "n1", Start: 50, End: 434, Deadline: 600},
		},
		Timeline: forensics.NewTimeline([]usage.Sample{
			{Node: "n1", Start: 100, End: 700, MeanShare: 0.75, DownSecs: 30},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	db := statsdb.NewDB()
	if err := forensics.LoadReport(db, rep); err != nil {
		t.Fatal(err)
	}

	m := testMonitor(Options{})
	s := NewServer(m, nil)
	s.Attach("forensics", func() any {
		r, err := forensics.ReadReport(db)
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return r
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body, ctype := get(t, srv, "/api/forensics")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("forensics endpoint = %d %s", code, ctype)
	}
	var got forensics.Report
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("forensics response is not a Report: %v\n%s", err, body)
	}
	want, err := forensics.ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) || len(got.Days) != len(want.Days) {
		t.Fatalf("served %d runs / %d days, statsdb has %d / %d",
			len(got.Runs), len(got.Days), len(want.Runs), len(want.Days))
	}
	for i := range want.Runs {
		a, b := got.Runs[i], want.Runs[i]
		if a.Forecast != b.Forecast || a.Day != b.Day || a.Dominant != b.Dominant {
			t.Errorf("run %d: served %+v, statsdb %+v", i, a, b)
		}
		if math.Abs(a.Lateness-b.Lateness) > 1e-9 || math.Abs(a.BlameSum()-b.BlameSum()) > 1e-9 {
			t.Errorf("run %d numbers diverge between endpoint and statsdb", i)
		}
		if len(a.Path) != len(b.Path) {
			t.Errorf("run %d path length %d vs %d", i, len(a.Path), len(b.Path))
		}
	}
}

func TestForensicsEndpointWithoutAttachment(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, _, _ := get(t, srv, "/api/forensics")
	if code != 404 {
		t.Errorf("unattached forensics endpoint = %d, want 404", code)
	}
}

func TestDashboardHasBlamePanel(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("dashboard = %d", code)
	}
	for _, want := range []string{"blame-panel", "api/forensics", "estimate_error"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}
