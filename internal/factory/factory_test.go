package factory

import (
	"math"
	"testing"

	"repro/internal/forecast"
	"repro/internal/logs"
)

// smallSpec builds a quick forecast for campaign tests (sim ≈ 2222 s).
func smallSpec(name string) *forecast.Spec {
	s := forecast.NewSpec(name, "r", 960, 10000, 2)
	s.StartOffset = 3600
	return s
}

func smallCampaign(t *testing.T, days int, events ...Event) *Campaign {
	t.Helper()
	c, err := New(Config{
		Days: days,
		Forecasts: []Assignment{
			{Spec: smallSpec("f1"), Node: "fnode01"},
			{Spec: smallSpec("f2"), Node: "fnode02"},
		},
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignRunsEveryForecastEveryDay(t *testing.T) {
	c := smallCampaign(t, 5)
	results := c.Run()
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10", len(results))
	}
	for _, r := range results {
		if !r.Finished {
			t.Fatalf("run %s/%d did not finish", r.Forecast, r.Day)
		}
		if r.Walltime <= 0 || math.IsNaN(r.Walltime) {
			t.Fatalf("run %s/%d walltime %v", r.Forecast, r.Day, r.Walltime)
		}
		// Launch honors the start offset.
		wantStart := float64(r.Day-1)*SecondsPerDay + 3600
		if math.Abs(r.Start-wantStart) > 1e-6 {
			t.Fatalf("run %s/%d started at %v, want %v", r.Forecast, r.Day, r.Start, wantStart)
		}
	}
}

func TestStableWalltimesWithoutEvents(t *testing.T) {
	c := smallCampaign(t, 6)
	results := c.Run()
	days, wt := Walltimes(results, "f1")
	if len(days) != 6 {
		t.Fatalf("got %d days", len(days))
	}
	for i := 1; i < len(wt); i++ {
		if math.Abs(wt[i]-wt[0]) > 1 {
			t.Fatalf("walltime drifted: %v", wt)
		}
	}
}

func TestTimestepChangeScalesWalltime(t *testing.T) {
	c := smallCampaign(t, 6, SetTimesteps{Day: 4, Forecast: "f1", Timesteps: 1920})
	results := c.Run()
	_, wt := Walltimes(results, "f1")
	before, after := wt[2], wt[4]
	ratio := after / before
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("walltime ratio after timestep doubling = %v, want ≈2", ratio)
	}
	// Result metadata records the change.
	for _, r := range results {
		if r.Forecast == "f1" && r.Day >= 4 && r.Timesteps != 1920 {
			t.Fatalf("day %d records timesteps %d", r.Day, r.Timesteps)
		}
	}
}

func TestCodeAndMeshChangesScaleWalltime(t *testing.T) {
	c := smallCampaign(t, 6,
		SetCode{Day: 3, Forecast: "f1", Code: forecast.CodeVersion{Name: "v2", CostFactor: 1.5}},
		SetMesh{Day: 5, Forecast: "f1", Mesh: forecast.Mesh{Name: "m2", Sides: 5000}},
	)
	results := c.Run()
	_, wt := Walltimes(results, "f1")
	if r := wt[2] / wt[0]; r < 1.4 || r > 1.6 {
		t.Fatalf("code-change ratio = %v, want ≈1.5", r)
	}
	if r := wt[4] / wt[2]; r < 0.45 || r > 0.60 {
		t.Fatalf("mesh-change ratio = %v, want ≈0.5", r)
	}
}

func TestAddAndRemoveForecast(t *testing.T) {
	extra := smallSpec("f3")
	c := smallCampaign(t, 6,
		AddForecast{Day: 3, Spec: extra, Node: "fnode03"},
		RemoveForecast{Day: 5, Forecast: "f3"},
	)
	results := c.Run()
	days, _ := Walltimes(results, "f3")
	if len(days) != 2 || days[0] != 3 || days[1] != 4 {
		t.Fatalf("f3 ran on days %v, want [3 4]", days)
	}
}

func TestReassignMovesRuns(t *testing.T) {
	c := smallCampaign(t, 4, Reassign{Day: 3, Forecast: "f1", Node: "fnode06"})
	results := c.Run()
	for _, r := range results {
		if r.Forecast != "f1" {
			continue
		}
		want := "fnode01"
		if r.Day >= 3 {
			want = "fnode06"
		}
		if r.Node != want {
			t.Fatalf("day %d on node %s, want %s", r.Day, r.Node, want)
		}
	}
}

func TestColocationContentionRaisesWalltime(t *testing.T) {
	// Two extra forecasts on f1's node exceed its two CPUs.
	e1, e2 := smallSpec("g1"), smallSpec("g2")
	c := smallCampaign(t, 4,
		AddForecast{Day: 3, Spec: e1, Node: "fnode01"},
		AddForecast{Day: 3, Spec: e2, Node: "fnode01"},
	)
	results := c.Run()
	_, wt := Walltimes(results, "f1")
	if wt[2] <= wt[1]*1.2 {
		t.Fatalf("contended walltime %v not clearly above baseline %v", wt[2], wt[1])
	}
}

func TestNodeFailureFreezesAndCascades(t *testing.T) {
	c := smallCampaign(t, 4,
		FailNode{Day: 2, Node: "fnode01"},
		RepairNode{Day: 3, Node: "fnode01"},
	)
	results := c.Run()
	_, wt := Walltimes(results, "f1")
	// Day 2's run launches at +3600 into a dead node and waits until the
	// day-3 repair: walltime ≈ (86400 − 3600) + normal run time.
	if wt[1] < SecondsPerDay-3600 {
		t.Fatalf("failed-node day walltime = %v, want ≈ one day", wt[1])
	}
	// Day 4 back to normal.
	if math.Abs(wt[3]-wt[0]) > 0.25*wt[0] {
		t.Fatalf("post-repair walltime %v far from baseline %v", wt[3], wt[0])
	}
}

func TestDelayInputShiftsOneDayOnly(t *testing.T) {
	c := smallCampaign(t, 3, DelayInput{Day: 2, Forecast: "f1", Delta: 7200})
	results := c.Run()
	for _, r := range results {
		if r.Forecast != "f1" {
			continue
		}
		wantStart := float64(r.Day-1)*SecondsPerDay + 3600
		if r.Day == 2 {
			wantStart += 7200
		}
		if math.Abs(r.Start-wantStart) > 1e-6 {
			t.Fatalf("day %d start %v, want %v", r.Day, r.Start, wantStart)
		}
	}
	// f2 unaffected.
	for _, r := range results {
		if r.Forecast == "f2" && math.Abs(r.Start-(float64(r.Day-1)*SecondsPerDay+3600)) > 1e-6 {
			t.Fatalf("f2 day %d start %v shifted", r.Day, r.Start)
		}
	}
}

func TestRunLogsWrittenAndCrawlable(t *testing.T) {
	c := smallCampaign(t, 3)
	c.Run()
	records, err := logs.Crawl(c.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("crawled %d records, want 6", len(records))
	}
	for _, r := range records {
		if r.Status != logs.StatusCompleted {
			t.Fatalf("record %s/%d status %s", r.Forecast, r.Day, r.Status)
		}
		if r.Walltime <= 0 || r.Node == "" || r.Timesteps != 960 {
			t.Fatalf("record incomplete: %+v", r)
		}
	}
}

func TestUnfinishedRunsRecordedAsRunning(t *testing.T) {
	// A forecast too large to finish within the campaign window stays
	// marked running, with NaN walltime in results.
	big := forecast.NewSpec("huge", "r", 96000, 60000, 1)
	big.Products = nil
	c, err := New(Config{
		Days:      1,
		DrainDays: 1,
		Forecasts: []Assignment{{Spec: big, Node: "fnode01"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := c.Run()
	if len(results) != 1 || results[0].Finished || !math.IsNaN(results[0].Walltime) {
		t.Fatalf("results = %+v", results)
	}
	records, err := logs.Crawl(c.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Status != logs.StatusRunning {
		t.Fatalf("records = %+v", records)
	}
}

func TestConfigValidation(t *testing.T) {
	good := smallSpec("f")
	cases := []Config{
		{Days: 0, Forecasts: []Assignment{{Spec: good, Node: "fnode01"}}},
		{Days: 1, Forecasts: []Assignment{{Spec: good, Node: "nope"}}},
		{Days: 1, Forecasts: []Assignment{{Spec: good, Node: "fnode01"}, {Spec: good, Node: "fnode02"}}},
		{Days: 1, Events: []Event{SetTimesteps{Day: 99, Forecast: "f", Timesteps: 10}}},
		{Days: 1, Forecasts: []Assignment{{Spec: &forecast.Spec{Name: "bad"}, Node: "fnode01"}}},
		{Days: 1, Nodes: []NodeSpec{{Name: "n", CPUs: 2, Speed: 1}, {Name: "n", CPUs: 2, Speed: 1}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

func TestEventStrings(t *testing.T) {
	events := []Event{
		SetTimesteps{Day: 1, Forecast: "f", Timesteps: 10},
		SetCode{Day: 1, Forecast: "f", Code: forecast.CodeVersion{Name: "v", CostFactor: 1}},
		SetMesh{Day: 1, Forecast: "f", Mesh: forecast.Mesh{Name: "m", Sides: 10}},
		AddForecast{Day: 1, Spec: smallSpec("f"), Node: "n"},
		AddForecast{Day: 1, Node: "n"},
		RemoveForecast{Day: 1, Forecast: "f"},
		Reassign{Day: 1, Forecast: "f", Node: "n"},
		FailNode{Day: 1, Node: "n"},
		RepairNode{Day: 1, Node: "n"},
	}
	for _, e := range events {
		if e.String() == "" || e.EventDay() != 1 {
			t.Fatalf("event %T misbehaves", e)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := smallCampaign(t, 1)
	if c.Spec("f1") == nil || c.Spec("zz") != nil {
		t.Fatal("Spec accessor wrong")
	}
	if c.assign["f1"] != "fnode01" {
		t.Fatal("assignment wrong")
	}
	if c.Engine() == nil || c.FS() == nil || c.Cluster() == nil {
		t.Fatal("nil accessors")
	}
}

func TestDefaultNodes(t *testing.T) {
	nodes := DefaultNodes()
	if len(nodes) != 6 {
		t.Fatalf("len = %d, want 6 (paper: six dedicated nodes)", len(nodes))
	}
	for _, n := range nodes {
		if n.CPUs != 2 {
			t.Fatalf("node %s has %d CPUs, want 2", n.Name, n.CPUs)
		}
	}
}
