package core

import (
	"math"
	"strings"
	"testing"
)

func forecastSchedule(t *testing.T) *Schedule {
	t.Helper()
	nodes := []NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1},
		{Name: "n2", CPUs: 2, Speed: 1},
	}
	runs := []Run{
		{Name: "tillamook", Work: 40000, Start: 10800, Deadline: 86400, Priority: 8},
		{Name: "columbia", Work: 47000, Start: 7200, Deadline: 86400, Priority: 9},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBackfillFillsIdleCapacityWithoutLateness(t *testing.T) {
	s := forecastSchedule(t)
	placed, skipped, err := PlanBackfill(s, []BackfillJob{
		{Name: "hindcast-1999", Work: 60000},
		{Name: "calibration-v2", Work: 30000},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped = %v", skipped)
	}
	if len(placed) != 2 {
		t.Fatalf("placed %d jobs", len(placed))
	}
	if !s.Feasible() {
		t.Fatalf("backfill made forecasts late: %v", s.Late())
	}
	// Jobs are placed in name order, whatever order they came in.
	if placed[0].Job.Name != "calibration-v2" {
		t.Fatalf("placement order: %v first", placed[0].Job.Name)
	}
	// Placed jobs are visible in the plan for Gantt/what-if.
	if _, ok := s.Plan.Run("backfill:hindcast-1999"); !ok {
		t.Fatal("backfill run not in plan")
	}
}

func TestBackfillUsesSecondCPUImmediately(t *testing.T) {
	// Each 2-CPU node runs one serial forecast, so a backfill job can
	// start at t=0 on the idle CPU without slowing anything.
	s := forecastSchedule(t)
	placed, _, err := PlanBackfill(s, []BackfillJob{{Name: "h", Work: 20000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 {
		t.Fatalf("placed = %v", placed)
	}
	if placed[0].Start != 0 {
		t.Fatalf("start = %v, want 0 (idle CPU available)", placed[0].Start)
	}
	if !almost(placed[0].Completion, 20000) {
		t.Fatalf("completion = %v, want 20000", placed[0].Completion)
	}
}

func TestBackfillDefersWhenImmediateWouldDelayForecasts(t *testing.T) {
	// Saturate both CPUs of the only node with forecasts that finish just
	// in time: immediate backfill would make them late, so the job starts
	// after they drain.
	nodes := []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}}
	runs := []Run{
		{Name: "f1", Work: 86000, Start: 0, Deadline: 86400, Priority: 9},
		{Name: "f2", Work: 86000, Start: 0, Deadline: 86400, Priority: 9},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	placed, skipped, err := PlanBackfill(s, []BackfillJob{{Name: "h", Work: 10000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(placed) != 1 {
		t.Fatalf("placed=%v skipped=%v", placed, skipped)
	}
	if placed[0].Start < 86000 {
		t.Fatalf("backfill started at %v, before forecasts drain at 86000", placed[0].Start)
	}
	if !s.Feasible() {
		t.Fatalf("forecasts late: %v", s.Late())
	}
}

func TestBackfillRespectsHorizon(t *testing.T) {
	s := forecastSchedule(t)
	_, skipped, err := PlanBackfill(s, []BackfillJob{
		{Name: "huge", Work: 500000},
	}, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0].Name != "huge" {
		t.Fatalf("skipped = %v; a week of work cannot fit in a day", skipped)
	}
}

func TestBackfillSkipsDownNodes(t *testing.T) {
	nodes := []NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1, Down: true},
		{Name: "n2", CPUs: 2, Speed: 1},
	}
	runs := []Run{{Name: "f", Work: 10000, Deadline: 86400}}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	placed, _, err := PlanBackfill(s, []BackfillJob{{Name: "h", Work: 1000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0].Node != "n2" {
		t.Fatalf("placed = %+v", placed)
	}
}

func TestBackfillErrors(t *testing.T) {
	if _, _, err := PlanBackfill(nil, nil, 0); err == nil {
		t.Fatal("nil schedule accepted")
	}
	s := forecastSchedule(t)
	if _, _, err := PlanBackfill(s, []BackfillJob{{Name: "bad", Work: -1}}, 0); err == nil {
		t.Fatal("negative work accepted")
	}
	if _, _, err := PlanBackfill(s, []BackfillJob{{Name: "dup", Work: 1}, {Name: "dup", Work: 1}}, 0); err == nil {
		t.Fatal("duplicate job accepted")
	}
}

func TestBackfillPredictionsConsistent(t *testing.T) {
	s := forecastSchedule(t)
	placed, _, err := PlanBackfill(s, []BackfillJob{{Name: "h", Work: 25000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Prediction.Completion["backfill:h"]
	if math.Abs(got-placed[0].Completion) > 1e-9 {
		t.Fatalf("placement completion %v vs schedule prediction %v", placed[0].Completion, got)
	}
	if !strings.HasPrefix("backfill:h", "backfill:") {
		t.Fatal("unreachable")
	}
}
