package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// driftMonitor builds a monitor that predicts ~10000s runs of f from its
// spec and applies the drift rule.
func driftMonitor(t *testing.T, rule DriftRule) *Monitor {
	return attachedMonitor(t, Options{Drift: rule}, nil, heavySpec("f", 86400))
}

func TestDriftAlert(t *testing.T) {
	cases := []struct {
		name     string
		rule     DriftRule
		walltime float64
		fires    bool
		word     string // expected direction in the message
	}{
		// Predicted ~10000s; landing at 16000s is 60% late drift.
		{"late landing fires", DriftRule{RelAbove: 0.25, Severity: SevWarning}, 16000, true, "late"},
		// Landing at 5000s is 50% early drift — wrong plans fire both ways.
		{"early landing fires", DriftRule{RelAbove: 0.25, Severity: SevWarning}, 5000, true, "early"},
		// 5% drift is within the 25% tolerance.
		{"within tolerance", DriftRule{RelAbove: 0.25, Severity: SevWarning}, 10500, false, ""},
		// 60% relative drift but only 6000s absolute, under the floor.
		{"min-secs suppression", DriftRule{RelAbove: 0.25, MinSecs: 8000, Severity: SevWarning}, 16000, false, ""},
		// The zero value disables the rule entirely.
		{"zero rule disabled", DriftRule{}, 16000, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := driftMonitor(t, tc.rule)
			m.ObserveRecord(runningRec("f", 4, day4+3600))
			m.ObserveRecord(completedRec("f", 4, day4+3600, tc.walltime))
			a := findAlert(m.Alerts(), "plan_drift")
			if !tc.fires {
				if a != nil {
					t.Fatalf("unexpected drift alert: %+v", a)
				}
				return
			}
			if a == nil {
				t.Fatalf("no plan_drift alert in %+v", m.Alerts())
			}
			if !a.Firing() || a.Severity != SevWarning {
				t.Errorf("alert state=%v severity=%v, want firing warning", a.State, a.Severity)
			}
			if a.Value <= tc.rule.RelAbove {
				t.Errorf("alert value %v not above threshold %v", a.Value, tc.rule.RelAbove)
			}
			if !strings.Contains(a.Message, tc.word) {
				t.Errorf("message %q does not say the landing was %s", a.Message, tc.word)
			}
		})
	}
}

// A corrected completion record that lands back on plan retires the
// drift alert for that run.
func TestDriftAlertResolves(t *testing.T) {
	m := driftMonitor(t, DriftRule{RelAbove: 0.25, Severity: SevWarning})
	m.ObserveRecord(runningRec("f", 4, day4+3600))
	m.ObserveRecord(completedRec("f", 4, day4+3600, 16000))
	if a := findAlert(m.Alerts(), "plan_drift"); a == nil || !a.Firing() {
		t.Fatalf("drift alert should fire first: %+v", a)
	}
	m.ObserveRecord(completedRec("f", 4, day4+3600, 10000))
	if a := findAlert(m.Alerts(), "plan_drift"); a == nil || a.Firing() {
		t.Fatalf("drift alert should have resolved: %+v", a)
	}
}

func TestUsageRules(t *testing.T) {
	rules := UsageRules([]string{"a", "b"}, 0, SevWarning)
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 2 saturation + 1 imbalance", len(rules))
	}
	for i, node := range []string{"a", "b"} {
		r := rules[i]
		if r.Name != "saturation:"+node || r.Metric != usage.MetricContentionAge ||
			r.Labels["node"] != node || r.Above != 1800 || r.Severity != SevWarning {
			t.Errorf("saturation rule %d = %+v", i, r)
		}
	}
	imb := rules[2]
	if imb.Name != "imbalance" || imb.Metric != usage.MetricImbalanceAge || imb.Above != 1800 {
		t.Errorf("imbalance rule = %+v", imb)
	}
	// An explicit sustain overrides the default.
	if r := UsageRules([]string{"a"}, 600, SevCritical)[0]; r.Above != 600 || r.Severity != SevCritical {
		t.Errorf("custom sustain rule = %+v", r)
	}
}

// Without an attached sampler the utilization endpoint 404s; with one,
// it serves the sampler's JSON snapshot.
func TestUtilizationEndpoint(t *testing.T) {
	m, reg, srv := testServer(t)
	code, _, _ := get(t, srv, "/api/utilization")
	if code != 404 {
		t.Fatalf("unattached utilization status = %d, want 404", code)
	}

	// Run a small campaign under a real sampler and attach its Status.
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("unode01", 1, 1.0)
	smp := usage.NewSampler(c, usage.Options{Interval: 300})
	smp.Start(3600)
	e.Scope("test").At(0, func() {
		n.Submit("a", 600, nil)
		n.Submit("b", 600, nil)
	})
	e.Run()
	smp.Finalize(e.Now())

	s := NewServer(m, reg)
	s.Attach("utilization", func() any { return smp.Status() })
	srv2 := httptest.NewServer(s.Handler())
	t.Cleanup(srv2.Close)

	code, body, ctype := get(t, srv2, "/api/utilization")
	if code != 200 {
		t.Fatalf("attached utilization status = %d\n%s", code, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type = %q", ctype)
	}
	var st usage.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("utilization is not a usage.Status: %v\n%s", err, body)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Name != "unode01" {
		t.Errorf("nodes = %+v, want the sampled node", st.Nodes)
	}
	// Two 600-work jobs sharing one CPU: a contention window must have
	// been detected and serialized.
	if len(st.Windows) == 0 {
		t.Errorf("no contention windows in snapshot: %s", body)
	}
}

// pprof routes are opt-in: absent by default, mounted after
// EnablePprof.
func TestPprofGating(t *testing.T) {
	m, reg, srv := testServer(t)
	if code, _, _ := get(t, srv, "/debug/pprof/"); code != 404 {
		t.Fatalf("pprof served without EnablePprof: status %d", code)
	}
	s := NewServer(m, reg)
	s.EnablePprof()
	srv2 := httptest.NewServer(s.Handler())
	t.Cleanup(srv2.Close)
	code, body, _ := get(t, srv2, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index status %d:\n%.200s", code, body)
	}
}

// The metrics endpoint collects Go runtime gauges on every scrape.
func TestRuntimeGaugesInMetrics(t *testing.T) {
	_, _, srv := testServer(t)
	code, body, _ := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	for _, metric := range []string{
		telemetry.MetricGoroutines,
		telemetry.MetricHeapAlloc,
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics output missing runtime gauge %q", metric)
		}
	}
}
