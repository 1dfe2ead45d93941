package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engineprof"
	"repro/internal/sim"
)

// /api/engine serves exactly the profiler's live Report — the same
// snapshot foreman -engineprof renders from statsdb after the campaign.
func TestEngineEndpointServesProfilerReport(t *testing.T) {
	e := sim.NewEngine()
	prof := engineprof.New()
	e.SetProbe(prof)
	for i := 0; i < 10; i++ {
		e.Scope("ps").At(float64(i), func() {})
	}
	e.Scope("workflow").At(2, func() {})
	e.Run()

	m := testMonitor(Options{})
	s := NewServer(m, nil)
	s.Attach("engine", func() any { return prof.Report() })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body, ctype := get(t, srv, "/api/engine")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("engine endpoint = %d %s", code, ctype)
	}
	var got engineprof.Report
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("engine response is not a Report: %v\n%s", err, body)
	}
	want := prof.Report()
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("served %d labels, profiler has %d", len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Errorf("label %d: served %+v, profiler %+v", i, got.Labels[i], want.Labels[i])
		}
	}
	if got.TotalFired() != 11 {
		t.Errorf("served total fired = %d, want 11", got.TotalFired())
	}
}

func TestEngineEndpointWithoutAttachment(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, _, _ := get(t, srv, "/api/engine")
	if code != 404 {
		t.Errorf("unattached engine endpoint = %d, want 404", code)
	}
}

func TestDashboardHasEnginePanel(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("dashboard = %d", code)
	}
	for _, want := range []string{"engine-panel", "api/engine", "engine-asof", "engine-depth"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}
