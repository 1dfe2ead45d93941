package core

import (
	"math"
	"testing"

	"repro/internal/forecast"
	"repro/internal/logs"
)

func histRecord(forecastName string, day int, wall float64, node string, ts, sides int, codeFactor float64) *logs.RunRecord {
	return &logs.RunRecord{
		Forecast:    forecastName,
		Region:      "r",
		Year:        2005,
		Day:         day,
		Node:        node,
		CodeVersion: "v1",
		CodeFactor:  codeFactor,
		MeshName:    "m",
		MeshSides:   sides,
		Timesteps:   ts,
		Walltime:    wall,
		End:         wall,
		Status:      logs.StatusCompleted,
	}
}

func estPlant() []NodeInfo {
	return []NodeInfo{
		{Name: "ref", CPUs: 2, Speed: 1.0},
		{Name: "fast", CPUs: 2, Speed: 2.0},
		{Name: "slow", CPUs: 2, Speed: 0.5},
	}
}

func TestEstimateUsesMostRecentRun(t *testing.T) {
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 50000, "ref", 5760, 30000, 1),
		histRecord("f", 2, 40000, "ref", 5760, 30000, 1),
	}, estPlant())
	est, err := e.Estimate(Request{Forecast: "f", Node: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	if est.Seconds != 40000 || est.Basis.Day != 2 {
		t.Fatalf("est = %+v", est)
	}
}

func TestEstimateScalesByTimestepsAndSides(t *testing.T) {
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1),
	}, estPlant())
	est, err := e.Estimate(Request{Forecast: "f", Timesteps: 11520, Node: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-80000) > 1 {
		t.Fatalf("doubled timesteps: %v, want 80000", est.Seconds)
	}
	est, err = e.Estimate(Request{Forecast: "f", MeshSides: 15000, Node: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-20000) > 1 {
		t.Fatalf("halved mesh: %v, want 20000", est.Seconds)
	}
}

func TestEstimateScalesByNodeSpeed(t *testing.T) {
	// "If a forecast is moved to a faster or slower node, ForeMan will
	// scale the expected running time of the forecast by the relative
	// node speed."
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1),
	}, estPlant())
	fast, err := e.Estimate(Request{Forecast: "f", Node: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Seconds-20000) > 1 {
		t.Fatalf("fast node: %v, want 20000", fast.Seconds)
	}
	slow, err := e.Estimate(Request{Forecast: "f", Node: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.Seconds-80000) > 1 {
		t.Fatalf("slow node: %v, want 80000", slow.Seconds)
	}
}

func TestEstimateUserAdjustment(t *testing.T) {
	// "A programmer may estimate that a new code version will run 10%
	// faster."
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1),
	}, estPlant())
	est, err := e.Estimate(Request{Forecast: "f", Node: "ref", Adjust: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-36000) > 1 {
		t.Fatalf("adjusted: %v, want 36000", est.Seconds)
	}
}

func TestEstimateErrors(t *testing.T) {
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1),
		histRecord("g", 1, 40000, "mystery", 5760, 30000, 1),
	}, estPlant())
	if _, err := e.Estimate(Request{Forecast: "never-ran", Node: "ref"}); err == nil {
		t.Fatal("estimate without history accepted")
	}
	if _, err := e.Estimate(Request{Forecast: "f", Node: "unknown-node"}); err == nil {
		t.Fatal("unknown target node accepted")
	}
	if _, err := e.Estimate(Request{Forecast: "g", Node: "ref"}); err == nil {
		t.Fatal("history on unknown node accepted")
	}
	// Running records are excluded from history.
	running := histRecord("h", 1, 0, "ref", 5760, 30000, 1)
	running.Status = logs.StatusRunning
	running.Walltime = 0
	e2 := NewEstimator([]*logs.RunRecord{running}, estPlant())
	if _, err := e2.Estimate(Request{Forecast: "h", Node: "ref"}); err == nil {
		t.Fatal("running-only history accepted")
	}
	if len(e.byForecast["f"]) != 1 || len(e.byForecast["zz"]) != 0 {
		t.Fatal("history grouped wrong")
	}
}

func TestEstimateCaveats(t *testing.T) {
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1),
	}, estPlant())
	// No changes: no caveats.
	clean, err := e.Estimate(Request{Forecast: "f", Node: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Caveats) != 0 {
		t.Fatalf("caveats = %v, want none", clean.Caveats)
	}
	// User code factor: flagged as an estimate.
	adjusted, err := e.Estimate(Request{Forecast: "f", Node: "ref", Adjust: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(adjusted.Caveats) != 1 {
		t.Fatalf("caveats = %v, want the code-change warning", adjusted.Caveats)
	}
	// Large mesh change: flagged.
	remeshed, err := e.Estimate(Request{Forecast: "f", Node: "ref", MeshSides: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if len(remeshed.Caveats) != 1 {
		t.Fatalf("caveats = %v, want the mesh warning", remeshed.Caveats)
	}
	// Small mesh change: not flagged.
	tweaked, err := e.Estimate(Request{Forecast: "f", Node: "ref", MeshSides: 31000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tweaked.Caveats) != 0 {
		t.Fatalf("caveats = %v, want none for a 3%% change", tweaked.Caveats)
	}
}

func TestEstimateFromSpec(t *testing.T) {
	spec := forecast.Tillamook()
	est := EstimateFromSpec(spec, NodeInfo{Name: "fast", CPUs: 2, Speed: 2})
	if math.Abs(est.Work-spec.TotalWork()) > 1e-9 {
		t.Fatalf("work = %v", est.Work)
	}
	if math.Abs(est.Seconds-spec.TotalWork()/2) > 1e-9 {
		t.Fatalf("seconds = %v", est.Seconds)
	}
}

func TestPlanRunsCombinesHistoryAndSpecs(t *testing.T) {
	nodes := estPlant()
	veteran := forecast.NewSpec("veteran", "r", 5760, 30000, 2)
	veteran.StartOffset = 3600
	veteran.Priority = 7
	rookie := forecast.NewSpec("rookie", "r", 2880, 10000, 2)

	e := NewEstimator([]*logs.RunRecord{
		histRecord("veteran", 3, 50000, "fast", 5760, 30000, 1),
	}, nodes)
	runs := e.PlanRuns([]*forecast.Spec{veteran, rookie}, nodes)
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	var vet, rook *Run
	for i := range runs {
		switch runs[i].Name {
		case "veteran":
			vet = &runs[i]
		case "rookie":
			rook = &runs[i]
		}
	}
	if vet == nil || rook == nil {
		t.Fatal("missing runs")
	}
	// Veteran: history on "fast" (speed 2) with walltime 50000 → work
	// 100000 reference CPU-seconds; PrevNode recorded.
	if math.Abs(vet.Work-100000) > 1 || vet.PrevNode != "fast" {
		t.Fatalf("veteran run = %+v", vet)
	}
	if vet.Start != 3600 || vet.Priority != 7 || vet.Deadline != 86400 {
		t.Fatalf("veteran metadata = %+v", vet)
	}
	// Rookie: no history → work model.
	if math.Abs(rook.Work-rookie.TotalWork()) > 1e-6 || rook.PrevNode != "" {
		t.Fatalf("rookie run = %+v", rook)
	}
}

func TestPlanRunsAppliesCodeFactorRatio(t *testing.T) {
	nodes := estPlant()
	spec := forecast.NewSpec("f", "r", 5760, 30000, 2)
	spec.Code = forecast.CodeVersion{Name: "v2", CostFactor: 2.0}
	e := NewEstimator([]*logs.RunRecord{
		histRecord("f", 1, 40000, "ref", 5760, 30000, 1.0),
	}, nodes)
	runs := e.PlanRuns([]*forecast.Spec{spec}, nodes)
	if len(runs) != 1 || math.Abs(runs[0].Work-80000) > 1 {
		t.Fatalf("runs = %+v (want work 80000 after 2× code factor)", runs)
	}
}
