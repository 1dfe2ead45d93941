package forensics

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// forensicSpec builds a quick forecast (sim ≈ 2222 s at speed 1).
func forensicSpec(name string) *forecast.Spec {
	s := forecast.NewSpec(name, "r", 960, 10000, 2)
	s.StartOffset = 3600
	return s
}

// forensicCampaign runs a 3-day campaign engineered to exercise every
// blame component: f1 and f2 share fnode01 (contention), f3 has fnode02
// to itself but the node fails for 1200 s inside its first run.
func forensicCampaign(t *testing.T) (*factory.Campaign, *telemetry.Telemetry, *usage.Sampler) {
	t.Helper()
	tel := telemetry.New()
	c, err := factory.New(factory.Config{
		Days: 3,
		Forecasts: []factory.Assignment{
			{Spec: forensicSpec("f1"), Node: "fnode01"},
			{Spec: forensicSpec("f2"), Node: "fnode01"},
			{Spec: forensicSpec("f3"), Node: "fnode02"},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Prepare()
	sampler := usage.NewSampler(c.Cluster(), usage.Options{Interval: 300})
	sampler.Start(c.Horizon())
	node := c.Cluster().Node("fnode02")
	if node == nil {
		t.Fatal("fnode02 missing")
	}
	eng := c.Engine()
	// Day 1: f3 launches at 3600 and runs for ~2222 s + products; fail its
	// node mid-simulation.
	eng.At(4000, func() { node.Fail() })
	eng.At(5200, func() { node.Repair() })
	c.Finish()
	sampler.Finalize(eng.Now())
	return c, tel, sampler
}

// campaignPlan derives plan entries from the campaign's own launch rule
// (day start + spec offset) plus a fixed duration estimate. The blame
// identity is algebraic — it must hold whatever the plan says — so the
// estimate is deliberately rough.
func campaignPlan(c *factory.Campaign, estimate float64) []PlanEntry {
	var plan []PlanEntry
	for _, fc := range c.Forecasts() {
		spec := c.Spec(fc)
		for day := c.StartDay(); day < c.StartDay()+c.Days(); day++ {
			start := float64(day-c.StartDay())*factory.SecondsPerDay + spec.StartOffset
			plan = append(plan, PlanEntry{
				Forecast: fc,
				Day:      day,
				Node:     c.AssignedNode(fc),
				Start:    start,
				End:      start + estimate,
				Deadline: float64(day-c.StartDay())*factory.SecondsPerDay + spec.Deadline,
			})
		}
	}
	return plan
}

// TestCampaignBlameSumsToLateness is the issue's acceptance property: on
// a seeded campaign with injected failures and contention, every run's
// five components sum to its observed lateness, and the engineered causes
// actually show up in the decomposition.
func TestCampaignBlameSumsToLateness(t *testing.T) {
	c, tel, sampler := forensicCampaign(t)
	rep, err := Analyze(Input{
		Spans:    tel.Trace().Spans(),
		Plan:     campaignPlan(c, 2000),
		Timeline: NewTimeline(sampler.Samples()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 9 {
		t.Fatalf("analyzed %d runs, want 9", len(rep.Runs))
	}

	var sawContention, sawFailure bool
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if diff := math.Abs(r.BlameSum() - r.Lateness); diff > 1e-6 {
			t.Errorf("%s/%d: blame sum %v != lateness %v (diff %v)",
				r.Forecast, r.Day, r.BlameSum(), r.Lateness, diff)
		}
		if !r.Planned {
			t.Errorf("%s/%d analyzed as unplanned", r.Forecast, r.Day)
		}
		// The critical path tiles the run's extent.
		if len(r.Path) == 0 {
			t.Errorf("%s/%d has no critical path", r.Forecast, r.Day)
			continue
		}
		if math.Abs(r.Path[0].Start-r.Start) > 1e-6 || math.Abs(r.Path[len(r.Path)-1].End-r.End) > 1e-6 {
			t.Errorf("%s/%d path spans [%v, %v], run spans [%v, %v]",
				r.Forecast, r.Day, r.Path[0].Start, r.Path[len(r.Path)-1].End, r.Start, r.End)
		}
		for j := 1; j < len(r.Path); j++ {
			if math.Abs(r.Path[j].Start-r.Path[j-1].End) > 1e-6 {
				t.Errorf("%s/%d path discontinuous at segment %d", r.Forecast, r.Day, j)
			}
		}
		if r.Node == "fnode01" && r.Contention > 0 {
			sawContention = true
		}
		if r.Forecast == "f3" && r.Day == 1 && r.Failure > 0 {
			sawFailure = true
		}
	}
	if !sawContention {
		t.Error("co-located forecasts on fnode01 produced no contention blame")
	}
	if !sawFailure {
		t.Error("injected fnode02 failure produced no failure blame on f3/1")
	}
}

// TestReportStatsdbRoundTrip checks the persistence half: Analyze →
// LoadReport → ReadReport reproduces every run row and path segment, so
// the CLI report and /api/forensics (both of which render ReadReport
// output) cannot disagree.
func TestReportStatsdbRoundTrip(t *testing.T) {
	c, tel, sampler := forensicCampaign(t)
	rep, err := Analyze(Input{
		Spans:    tel.Trace().Spans(),
		Plan:     campaignPlan(c, 2000),
		Timeline: NewTimeline(sampler.Samples()),
	})
	if err != nil {
		t.Fatal(err)
	}
	db := statsdb.NewDB()
	if err := LoadReport(db, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(rep.Runs) {
		t.Fatalf("read back %d runs, want %d", len(got.Runs), len(rep.Runs))
	}
	for i := range rep.Runs {
		a, b := &rep.Runs[i], &got.Runs[i]
		if a.Forecast != b.Forecast || a.Day != b.Day || a.Node != b.Node ||
			a.Dominant != b.Dominant || a.Planned != b.Planned || a.Interrupted != b.Interrupted {
			t.Errorf("run %d identity mismatch: %+v vs %+v", i, a, b)
		}
		for _, comp := range Components() {
			if math.Abs(a.Component(comp)-b.Component(comp)) > 1e-9 {
				t.Errorf("run %d %s: %v vs %v", i, comp, a.Component(comp), b.Component(comp))
			}
		}
		if math.Abs(a.Lateness-b.Lateness) > 1e-9 || math.Abs(a.DeadlineMiss-b.DeadlineMiss) > 1e-9 {
			t.Errorf("run %d lateness mismatch", i)
		}
		if len(a.Path) != len(b.Path) {
			t.Errorf("run %d path length %d vs %d", i, len(a.Path), len(b.Path))
			continue
		}
		for j := range a.Path {
			if a.Path[j] != b.Path[j] {
				t.Errorf("run %d segment %d: %+v vs %+v", i, j, a.Path[j], b.Path[j])
			}
		}
	}
	if len(got.Days) != len(rep.Days) {
		t.Fatalf("read back %d days, want %d", len(got.Days), len(rep.Days))
	}
	for i := range rep.Days {
		if got.Days[i].Dominant != rep.Days[i].Dominant || got.Days[i].Runs != rep.Days[i].Runs {
			t.Errorf("day %d: %+v vs %+v", i, rep.Days[i], got.Days[i])
		}
	}
	// The v4 tables join with the rest of the stats database over SQL.
	res, err := db.Query("SELECT forecast, COUNT(*) FROM lateness_blame GROUP BY forecast ORDER BY forecast ASC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("blame rows group into %d forecasts, want 3", len(res.Rows))
	}
}

// TestAnalyzeFromPersistedTimeline checks the replayable half of the
// usage pipeline: the node_usage rows a campaign persisted read back as
// the sampler's own timeline, and a forensics pass over a Timeline
// rebuilt from them reproduces the live sampler's analysis exactly —
// long after the campaign's engine and sampler are gone.
func TestAnalyzeFromPersistedTimeline(t *testing.T) {
	c, tel, sampler := forensicCampaign(t)
	plan := campaignPlan(c, 2000)
	live, err := Analyze(Input{Spans: tel.Trace().Spans(), Plan: plan, Timeline: sampler})
	if err != nil {
		t.Fatal(err)
	}
	db := statsdb.NewDB()
	if _, err := usage.LoadSamples(db, sampler.Samples()); err != nil {
		t.Fatal(err)
	}
	samples, err := usage.ReadSamples(db)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples, sampler.Samples()) {
		t.Fatalf("read back %d samples that differ from the sampler's %d", len(samples), len(sampler.Samples()))
	}
	replayed, err := Analyze(Input{Spans: tel.Trace().Spans(), Plan: plan, Timeline: NewTimeline(samples)})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Runs) == 0 {
		t.Fatal("live analysis found no runs")
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Fatalf("analysis from persisted node_usage differs from the live sampler's:\n%+v\nvs\n%+v", replayed.Runs, live.Runs)
	}
}
