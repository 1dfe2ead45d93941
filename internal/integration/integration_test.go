// Package integration exercises the whole reproduction end to end: run a
// campaign on the simulator, harvest its logs, load the statistics
// database, estimate tomorrow from history, build a schedule, and then
// actually simulate tomorrow to confirm the ForeMan predictions — the
// full loop a CORIE operator would drive.
package integration

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/stats"
	"repro/internal/statsdb"
)

// plantSpecs is a small factory: five forecasts on three nodes.
func plantSpecs() []*forecast.Spec {
	mk := func(name string, ts, sides, products, prio int, startHour float64) *forecast.Spec {
		s := forecast.NewSpec(name, name+"-region", ts, sides, products)
		s.StartOffset = startHour * 3600
		s.Priority = prio
		return s
	}
	return []*forecast.Spec{
		mk("alpha", 5760, 24000, 6, 8, 3),
		mk("bravo", 5760, 20000, 6, 7, 2),
		mk("charlie", 4320, 18000, 4, 5, 3),
		mk("delta", 2880, 16000, 4, 4, 4),
		mk("echo", 2880, 12000, 4, 2, 4),
	}
}

func plantNodes() []factory.NodeSpec {
	return []factory.NodeSpec{
		{Name: "n1", CPUs: 2, Speed: 1.0},
		{Name: "n2", CPUs: 2, Speed: 1.0},
		{Name: "n3", CPUs: 2, Speed: 1.2},
	}
}

func coreNodes() []core.NodeInfo {
	var out []core.NodeInfo
	for _, n := range plantNodes() {
		out = append(out, core.NodeInfo{Name: n.Name, CPUs: n.CPUs, Speed: n.Speed})
	}
	return out
}

// runCampaign executes days of history with the given assignment.
func runCampaign(t *testing.T, days int, assign map[string]string) (*factory.Campaign, []factory.RunResult) {
	t.Helper()
	specs := plantSpecs()
	var assignments []factory.Assignment
	for _, s := range specs {
		assignments = append(assignments, factory.Assignment{Spec: s, Node: assign[s.Name]})
	}
	c, err := factory.New(factory.Config{
		Days:      days,
		Nodes:     plantNodes(),
		Forecasts: assignments,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Run()
}

func defaultAssign() map[string]string {
	return map[string]string{
		"alpha": "n1", "bravo": "n2", "charlie": "n3", "delta": "n1", "echo": "n2",
	}
}

func TestFullLoopPredictionsMatchSimulation(t *testing.T) {
	// Day 1-3: accumulate history.
	hist, _ := runCampaign(t, 3, defaultAssign())
	records, err := logs.Crawl(hist.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 15 {
		t.Fatalf("harvested %d records, want 15", len(records))
	}

	// Load the statistics database and sanity-check it with SQL.
	db := statsdb.NewDB()
	if _, err := statsdb.LoadRuns(db, records); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT forecast, COUNT(*) FROM runs GROUP BY forecast ORDER BY forecast")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("grouped rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].Int() != 3 {
			t.Fatalf("forecast %s has %d runs, want 3", row[0].Str(), row[1].Int())
		}
	}

	// Plan day 4 with ForeMan from history.
	nodes := coreNodes()
	estimator := core.NewEstimator(records, nodes)
	runs := estimator.PlanRuns(plantSpecs(), nodes)
	schedule, err := core.BuildSchedule(nodes, runs, core.ScheduleOptions{Heuristic: core.StayPut})
	if err != nil {
		t.Fatal(err)
	}
	if !schedule.Feasible() {
		t.Fatalf("plan infeasible: late %v", schedule.Late())
	}

	// Execute day 4 with the stay-put assignment and compare actual
	// completions against ForeMan's predictions.
	_, results := runCampaign(t, 1, defaultAssign())
	for _, r := range results {
		if !r.Finished {
			t.Fatalf("run %s did not finish", r.Forecast)
		}
		predicted := schedule.Prediction.Completion[r.Forecast]
		actual := r.End // day-4 campaign time == seconds after midnight
		rel := math.Abs(predicted-actual) / actual
		if rel > 0.02 {
			t.Errorf("%s: predicted completion %v, actual %v (%.1f%% off)",
				r.Forecast, predicted, actual, 100*rel)
		}
	}
}

func TestFullLoopEstimatesTrackTimestepChange(t *testing.T) {
	// History at 5760 steps, then the operator doubles alpha's timesteps.
	hist, _ := runCampaign(t, 2, defaultAssign())
	records, err := logs.Crawl(hist.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	nodes := coreNodes()
	estimator := core.NewEstimator(records, nodes)

	specs := plantSpecs()
	specs[0].Timesteps *= 2
	runs := estimator.PlanRuns(specs, nodes)
	var alpha, bravo core.Run
	for _, r := range runs {
		switch r.Name {
		case "alpha":
			alpha = r
		case "bravo":
			bravo = r
		}
	}
	// Alpha's estimated work doubled relative to its per-step history;
	// bravo's did not change.
	lastWalltime := func(forecast string) float64 {
		var last *logs.RunRecord
		for _, r := range records {
			if r.Forecast == forecast && r.Status == logs.StatusCompleted && (last == nil || r.Day > last.Day) {
				last = r
			}
		}
		return last.Walltime
	}
	baseWork := lastWalltime("alpha") // ran on speed-1.0 n1
	if rel := math.Abs(alpha.Work-2*baseWork) / (2 * baseWork); rel > 0.01 {
		t.Errorf("alpha estimated work %v, want ≈%v", alpha.Work, 2*baseWork)
	}
	if rel := math.Abs(bravo.Work-lastWalltime("bravo")) / bravo.Work; rel > 0.01 {
		t.Errorf("bravo estimated work %v, want ≈ its history", bravo.Work)
	}
}

func TestFullLoopFailureRescheduleStaysFeasible(t *testing.T) {
	hist, _ := runCampaign(t, 2, defaultAssign())
	records, err := logs.Crawl(hist.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	nodes := coreNodes()
	estimator := core.NewEstimator(records, nodes)
	runs := estimator.PlanRuns(plantSpecs(), nodes)
	schedule, err := core.BuildSchedule(nodes, runs, core.ScheduleOptions{Heuristic: core.StayPut})
	if err != nil {
		t.Fatal(err)
	}
	after, err := core.RescheduleAfterFailure(schedule, "n1", core.MinimalMove, core.WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Feasible() {
		t.Fatalf("post-failure plan infeasible: %v", after.Late())
	}
	// Execute the rescheduled day and confirm the runs really finish in
	// time on the surviving nodes.
	assign := defaultAssign()
	for run, node := range after.Plan.Assign {
		assign[run] = node
	}
	specs := plantSpecs()
	var assignments []factory.Assignment
	for _, s := range specs {
		assignments = append(assignments, factory.Assignment{Spec: s, Node: assign[s.Name]})
	}
	c, err := factory.New(factory.Config{
		Days:      1,
		Nodes:     plantNodes(),
		Forecasts: assignments,
		Events:    []factory.Event{factory.FailNode{Day: 1, Node: "n1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Run() {
		if !r.Finished {
			t.Fatalf("run %s did not finish after reschedule", r.Forecast)
		}
		if r.End > 86400 {
			t.Errorf("run %s finished at %v, past its deadline", r.Forecast, r.End)
		}
	}
}

func TestFullLoopStatisticsLinearityAcrossForecasts(t *testing.T) {
	// Across the plant, walltime per (timesteps × sides) is constant up
	// to the co-location factor — the statistics the estimator relies on.
	hist, _ := runCampaign(t, 1, defaultAssign())
	records, err := logs.Crawl(hist.FS(), "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var x, y []float64
	speeds := map[string]float64{"n1": 1.0, "n2": 1.0, "n3": 1.2}
	for _, r := range records {
		x = append(x, float64(r.Timesteps)*float64(r.MeshSides))
		y = append(y, r.Walltime*speeds[r.Node])
	}
	fit, err := stats.FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R² = %v; normalized walltime should be linear in steps×sides", fit.R2)
	}
}
