package spc_test

import (
	"sort"
	"testing"

	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/observe"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
)

// TestCampaignChangepointBlamesCodeVersionNotFailure is the issue's
// acceptance scenario: a campaign with an engineered mid-campaign code
// slowdown AND an injected one-day node failure. The CUSUM must locate
// the changepoint at the version change — a sustained level shift — and
// must NOT declare one for the failure day, which is a single spike the
// clamped statistics are designed to ride out. The out_of_control alert
// fires for the affected series and resolves through the standard
// lifecycle once the charts rebaseline.
func TestCampaignChangepointBlamesCodeVersionNotFailure(t *testing.T) {
	const (
		slowDay   = 20
		failDay   = 28
		repairDay = 29
		days      = 40
	)
	tillamook := forecast.Tillamook()
	columbia := forecast.NewSpec("forecast-columbia", "columbia", 5760, 28000, 8)
	columbia.StartOffset = 2 * 3600

	tel := telemetry.New()
	c, err := factory.New(factory.Config{
		Year: 2005,
		Days: days,
		Forecasts: []factory.Assignment{
			{Spec: tillamook, Node: "fnode01"},
			{Spec: columbia, Node: "fnode02"},
		},
		Events: []factory.Event{
			factory.SetCode{Day: slowDay, Forecast: tillamook.Name,
				Code: forecast.CodeVersion{Name: "elcirc-5.02", CostFactor: 1.35}},
			factory.FailNode{Day: failDay, Node: "fnode02"},
			factory.RepairNode{Day: repairDay, Node: "fnode02"},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := monitor.DefaultOptions()
	opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
	opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
	mon := monitor.New(opts, tel.Registry())
	mon.Attach(c)
	c.Run()
	mon.Finalize(c.Engine().Now())

	// Stream the campaign's completed runs through the observatory in
	// completion order, verdicts feeding the alert book — exactly what
	// foreman -spc and the factory's live hook do.
	obs := spc.New(spc.DefaultParams())
	observe.AlertOn(obs, mon)
	runs := mon.Status().Runs
	sort.Slice(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
	completed := 0
	for _, r := range runs {
		if r.End == 0 {
			continue
		}
		completed++
		var estWall float64
		if r.LaunchETA > r.Start {
			estWall = r.LaunchETA - r.Start
		}
		obs.ObserveRun(spc.RunObs{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Walltime: r.Walltime, EstimatedWalltime: estWall,
			End: r.End, Deadline: r.Deadline,
		})
	}
	if completed < 2*days-4 {
		t.Fatalf("campaign completed only %d runs", completed)
	}
	obs.Finalize()
	rep := obs.Report()

	// The slowed forecast's run-time chart pins the shift at the version
	// change, with the mean moving up.
	tr := findSeries(rep, spc.KindRunTime, tillamook.Name)
	if tr == nil {
		t.Fatal("no run_time series for the slowed forecast")
	}
	var atSlow *spc.Changepoint
	for i := range tr.Changepoints {
		cp := &tr.Changepoints[i]
		if cp.Day >= slowDay-1 && cp.Day <= slowDay+3 {
			atSlow = cp
		}
		if cp.Day >= failDay-1 && cp.Day <= repairDay+2 {
			t.Errorf("changepoint on the failure day: %+v", *cp)
		}
	}
	if atSlow == nil {
		t.Fatalf("CUSUM did not flag the day-%d code-version change; changepoints: %+v",
			slowDay, tr.Changepoints)
	}
	if atSlow.After <= atSlow.Before {
		t.Errorf("slowdown changepoint shifted down: %+v", *atSlow)
	}

	// The failed node's forecast took a one-day hit — a spike, not a
	// shift. No changepoint may be declared anywhere near it.
	cr := findSeries(rep, spc.KindRunTime, columbia.Name)
	if cr == nil {
		t.Fatal("no run_time series for the failure-day forecast")
	}
	for _, cp := range cr.Changepoints {
		if cp.Day >= failDay-1 && cp.Day <= repairDay+2 {
			t.Errorf("node failure misattributed as a level shift: %+v", cp)
		}
	}

	// The alerts went through the standard lifecycle: out_of_control
	// fired while the charts were out and resolved once rebaselined, and
	// the changepoint alert names the slowed forecast.
	var sawOut, sawOutResolved, sawCP bool
	for _, a := range mon.Alerts() {
		switch a.Rule {
		case "out_of_control":
			sawOut = true
			if !a.Firing() {
				sawOutResolved = true
			}
		case "changepoint":
			if a.Forecast == tillamook.Name {
				sawCP = true
			}
		}
	}
	if !sawOut || !sawOutResolved {
		t.Errorf("out_of_control lifecycle: fired=%v resolved=%v, want both", sawOut, sawOutResolved)
	}
	if !sawCP {
		t.Error("no changepoint alert for the slowed forecast")
	}

	// Round-trip the verdict through the SPC tables — the rows foreman
	// -spc, /api/spc, and the dashboard all render.
	db := statsdb.NewDB()
	if err := spc.LoadReport(db, rep); err != nil {
		t.Fatal(err)
	}
	rt, err := spc.ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	ptr := findSeries(rt, spc.KindRunTime, tillamook.Name)
	if ptr == nil || len(ptr.Changepoints) != len(tr.Changepoints) {
		t.Fatalf("persisted report lost the changepoint: %+v", ptr)
	}
	if ptr.Changepoints[0].Day != tr.Changepoints[0].Day {
		t.Errorf("persisted changepoint day %d, live %d", ptr.Changepoints[0].Day, tr.Changepoints[0].Day)
	}
}

// findSeries returns the report's series for (kind, subject), nil when
// absent.
func findSeries(r *spc.Report, kind, subject string) *spc.SeriesReport {
	for i := range r.Series {
		if r.Series[i].Kind == kind && r.Series[i].Subject == subject {
			return &r.Series[i]
		}
	}
	return nil
}
