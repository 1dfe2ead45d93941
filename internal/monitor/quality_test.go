package monitor

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/factory"
	"repro/internal/harvest"
	"repro/internal/logs"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

func TestStalenessRuleFiresAndResolves(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{
		Staleness: []StalenessRule{{
			Name: "harvest_stale", Metric: "harvest_last_pass_timestamp",
			MaxAge: 7200, Severity: SevWarning,
		}},
	}, reg)

	// No metric yet: the rule stays silent (nothing has ever harvested).
	m.ObserveSnapshot(factory.Snapshot{Now: 10000}, nil)
	if a := findAlert(m.Alerts(), "harvest_stale"); a != nil {
		t.Fatalf("rule fired before the metric existed: %+v", a)
	}

	hb := reg.Gauge("harvest_last_pass_timestamp", nil)
	hb.Set(10000)
	m.ObserveSnapshot(factory.Snapshot{Now: 12000}, nil) // age 2000 < 7200
	if a := findAlert(m.Alerts(), "harvest_stale"); a != nil {
		t.Fatalf("rule fired within MaxAge: %+v", a)
	}

	m.ObserveSnapshot(factory.Snapshot{Now: 20000}, nil) // age 10000 > 7200
	a := findAlert(m.FiringAlerts(), "harvest_stale")
	if a == nil {
		t.Fatal("staleness alert did not fire")
	}
	if a.Severity != SevWarning || !strings.Contains(a.Message, "harvest_last_pass_timestamp") {
		t.Fatalf("alert = %+v", a)
	}

	// The heartbeat returning resolves the alert.
	hb.Set(20500)
	m.ObserveSnapshot(factory.Snapshot{Now: 21000}, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatalf("alert did not resolve: %+v", m.FiringAlerts())
	}
}

func TestRateRuleFiresOnCounterSpike(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{
		Rates: []RateRule{{
			Name: "quarantine_spike", Metric: "harvest_quarantined_total",
			PerHourAbove: 2, Severity: SevCritical,
		}},
	}, reg)
	ctr := reg.Counter("harvest_quarantined_total", nil)

	// First observation only seeds the rate state.
	ctr.Add(1)
	m.ObserveSnapshot(factory.Snapshot{Now: 3600}, nil)
	if a := findAlert(m.Alerts(), "quarantine_spike"); a != nil {
		t.Fatalf("rule fired on first sample: %+v", a)
	}

	// +1 over the next hour: 1/h, under the bound.
	ctr.Add(1)
	m.ObserveSnapshot(factory.Snapshot{Now: 7200}, nil)
	if a := findAlert(m.Alerts(), "quarantine_spike"); a != nil {
		t.Fatalf("rule fired at 1/h: %+v", a)
	}

	// +10 in the next hour: spike.
	ctr.Add(10)
	m.ObserveSnapshot(factory.Snapshot{Now: 10800}, nil)
	a := findAlert(m.FiringAlerts(), "quarantine_spike")
	if a == nil {
		t.Fatal("rate alert did not fire on spike")
	}
	if a.Value != 10 || a.Severity != SevCritical {
		t.Fatalf("alert = %+v", a)
	}

	// Quiet hour: resolves.
	m.ObserveSnapshot(factory.Snapshot{Now: 14400}, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatalf("rate alert did not resolve: %+v", m.FiringAlerts())
	}
}

func TestMissingRunRule(t *testing.T) {
	m := attachedMonitor(t, Options{}, nil, attachSpec("f", 7200), attachSpec("g", 7200))
	// The monitor's tick records each campaign day's roster.
	for day := 1; day <= 3; day++ {
		m.expectOn(day, []string{"f", "g"})
	}

	// Day 1, both produce records (g's run is dropped — still a record).
	m.ObserveRecord(completedRec("f", 1, 3600, 1800))
	g := runningRec("g", 1, 3600)
	g.Status = logs.StatusDropped
	m.ObserveRecord(g)
	m.ObserveSnapshot(factory.Snapshot{Now: 10000}, nil) // past day 1's deadline
	if a := findAlert(m.Alerts(), "missing_run"); a != nil {
		t.Fatalf("missing_run fired although records exist: %+v", a)
	}

	// Day 2: f produces, g goes silent. Past the deadline the alert
	// fires for g day 2 only.
	m.ObserveRecord(completedRec("f", 2, 86400+3600, 1800))
	m.ObserveSnapshot(factory.Snapshot{Now: 86400 + 7201}, nil)
	firing := m.FiringAlerts()
	a := findAlert(firing, "missing_run")
	if a == nil {
		t.Fatal("missing_run did not fire for the silent forecast")
	}
	if a.Forecast != "g" || a.Day != 2 || a.Severity != SevCritical {
		t.Fatalf("alert = %+v", a)
	}
	missing := 0
	for _, al := range firing {
		if al.Rule == "missing_run" {
			missing++
		}
	}
	if missing != 1 {
		t.Fatalf("firing = %+v", firing)
	}

	// The record arriving late (a backfilled harvest) resolves it.
	m.ObserveRecord(completedRec("g", 2, 86400+3600, 1800))
	m.ObserveSnapshot(factory.Snapshot{Now: 86400 + 12000}, nil)
	if a := findAlert(m.FiringAlerts(), "missing_run"); a != nil {
		t.Fatalf("missing_run did not resolve on backfill: %+v", a)
	}
	// Days past the campaign's last day (3) are never flagged.
	m.ObserveSnapshot(factory.Snapshot{Now: 10 * 86400}, nil)
	for _, al := range m.FiringAlerts() {
		if al.Rule == "missing_run" && al.Day > 3 {
			t.Fatalf("missing_run fired past the last campaign day: %+v", al)
		}
	}
}

// TestStaleHarvestAlertReachesDashboard is the end-to-end data-quality
// path: a live harvester heartbeats through telemetry; when it stops, the
// staleness rule fires and the alert is visible through the control
// room's HTTP API, alongside the harvest panel's status JSON.
func TestStaleHarvestAlertReachesDashboard(t *testing.T) {
	clock := 1000.0
	fs := vfs.New(func() float64 { return clock })
	rec := completedRec("forecast-a", 1, 900, 60)
	rec.Node = "fnode01"
	if err := logs.Write(fs, rec); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	tel.SetClock(func() float64 { return clock })
	h, err := harvest.New(fs, statsdb.NewDB(), harvest.NewVFSJournal(vfs.New(nil), "/j"),
		harvest.Options{Telemetry: tel, Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{
		Staleness: []StalenessRule{{
			Name: "harvest_stale", Metric: harvest.MetricLastPassTime,
			MaxAge: 2 * 3600, Severity: SevCritical,
		}},
	}, tel.Registry())
	srv := NewServer(m, tel.Registry())
	srv.Attach("harvest", func() any { return h.Status() })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// While the harvester runs, no staleness alert.
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}
	clock += 3600
	m.ObserveSnapshot(factory.Snapshot{Now: clock}, nil)
	if len(m.FiringAlerts()) != 0 {
		t.Fatalf("alert fired while harvester healthy: %+v", m.FiringAlerts())
	}

	// The harvester stops; sim time moves past MaxAge; the alert fires
	// and is served at /api/alerts.
	clock += 3 * 3600
	m.ObserveSnapshot(factory.Snapshot{Now: clock}, nil)
	resp, err := ts.Client().Get(ts.URL + "/api/alerts?state=firing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alerts []Alert
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Rule != "harvest_stale" || alerts[0].Severity != SevCritical {
		t.Fatalf("firing via API = %+v", alerts)
	}

	// The harvest panel endpoint serves the harvester's own status.
	hr, err := ts.Client().Get(ts.URL + "/api/harvest")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hs harvest.Status
	if err := json.NewDecoder(hr.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Passes != 1 || hs.Totals.Ingested != 1 {
		t.Fatalf("/api/harvest = %+v", hs)
	}

	// The dashboard HTML carries the harvest panel markup.
	dr, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	html, err := io.ReadAll(dr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), `id="harvest-panel"`) {
		t.Fatal("dashboard lacks harvest panel")
	}
}

func TestHarvestEndpointWithoutHarvester(t *testing.T) {
	tel := telemetry.New()
	srv := NewServer(New(Options{}, tel.Registry()), tel.Registry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/harvest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}
