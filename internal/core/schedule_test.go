package core

import (
	"math"
	"strings"
	"testing"
)

func TestBuildScheduleFeasiblePlant(t *testing.T) {
	nodes := plant(3)
	runs := mkRuns(40000, 40000, 40000)
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible() || len(s.Dropped) != 0 {
		t.Fatalf("late=%v dropped=%v", s.Late(), s.Dropped)
	}
}

func TestBuildScheduleDropsLowestPriority(t *testing.T) {
	// One 1-CPU node, three runs, only two can meet the deadline.
	nodes := []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}}
	runs := []Run{
		{Name: "critical", Work: 30000, Deadline: 86400, Priority: 9},
		{Name: "normal", Work: 30000, Deadline: 86400, Priority: 5},
		{Name: "scratch", Work: 40000, Deadline: 86400, Priority: 1},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing, AllowDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible() {
		t.Fatalf("still late: %v", s.Late())
	}
	if len(s.Dropped) != 1 || s.Dropped[0] != "scratch" {
		t.Fatalf("dropped = %v, want [scratch]", s.Dropped)
	}
}

func TestBuildScheduleWithoutDropReportsLate(t *testing.T) {
	nodes := []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}}
	runs := []Run{
		{Name: "a", Work: 60000, Deadline: 86400, Priority: 1},
		{Name: "b", Work: 60000, Deadline: 86400, Priority: 1},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible() || len(s.Late()) == 0 {
		t.Fatal("overload not reported late")
	}
	if len(s.Dropped) != 0 {
		t.Fatalf("dropped without permission: %v", s.Dropped)
	}
}

// TestMaxDropsCapsDropping: the drop loop keeps at least one run. Each
// run is late even alone, so dropping never restores feasibility; the
// loop drops the two lowest priorities and keeps the highest.
func TestMaxDropsCapsDropping(t *testing.T) {
	nodes := []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}}
	runs := []Run{
		{Name: "a", Work: 100000, Deadline: 86400, Priority: 3},
		{Name: "b", Work: 100000, Deadline: 86400, Priority: 2},
		{Name: "c", Work: 100000, Deadline: 86400, Priority: 1},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing, AllowDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(s.Dropped, ",") != "b,c" {
		t.Fatalf("dropped = %v, want [b c]", s.Dropped)
	}
	if late := s.Late(); len(late) != 1 || late[0] != "a" {
		t.Fatalf("late = %v, want the kept run [a]", late)
	}
}

func TestScheduleMoveRecomputesPrediction(t *testing.T) {
	nodes := plant(2)
	runs := []Run{
		{Name: "a", Work: 100000, Deadline: 86400},
		{Name: "b", Work: 100000, Deadline: 86400},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	// Spread over two nodes: both finish at 100000.
	before := s.Prediction.Completion["a"]
	if !almost(before, 100000) {
		t.Fatalf("initial completion = %v", before)
	}
	// What-if: pile both on one node. Two serial runs on 2 CPUs still run
	// at full speed; the prediction must be recomputed either way.
	if err := s.Move("b", s.Plan.Assign["a"]); err != nil {
		t.Fatal(err)
	}
	if !almost(s.Prediction.Completion["b"], 100000) {
		t.Fatalf("completion after move = %v", s.Prediction.Completion["b"])
	}
	if err := s.Move("zz", "a"); err == nil {
		t.Fatal("moved unknown run")
	}
}

func TestScheduleDelayShiftsCompletion(t *testing.T) {
	nodes := plant(1)
	runs := []Run{{Name: "a", Work: 10000, Start: 3600, Deadline: 86400}}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Prediction.Completion["a"], 13600) {
		t.Fatalf("completion = %v", s.Prediction.Completion["a"])
	}
	// Input data three hours late.
	if err := s.Delay("a", 3600+3*3600); err != nil {
		t.Fatal(err)
	}
	if !almost(s.Prediction.Completion["a"], 13600+3*3600) {
		t.Fatalf("delayed completion = %v", s.Prediction.Completion["a"])
	}
	if err := s.Delay("zz", 0); err == nil {
		t.Fatal("unknown run accepted")
	}
	if err := s.Delay("a", -1); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestRescheduleMinimalMoveOnlyMovesDisplaced(t *testing.T) {
	nodes := plant(3)
	runs := mkRuns(50000, 50000, 50000)
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	failed := s.Plan.Assign[runs[0].Name]
	after, err := RescheduleAfterFailure(s, failed, MinimalMove, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	// Every displaced run moved off the failed node; everything else
	// stayed.
	for run, node := range after.Plan.Assign {
		if node == failed {
			t.Fatalf("run %s still on failed node", run)
		}
		if before := s.Plan.Assign[run]; before != failed && before != node {
			t.Fatalf("undisplaced run %s moved %s → %s", run, before, node)
		}
	}
	// Completion times remain finite: work continues elsewhere.
	for run, c := range after.Prediction.Completion {
		if math.IsInf(c, 1) {
			t.Fatalf("run %s unplaced after reschedule", run)
		}
	}
}

func TestRescheduleFullReshuffleCanMoveAnything(t *testing.T) {
	nodes := plant(2)
	runs := mkRuns(50000, 30000, 20000, 10000)
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	after, err := RescheduleAfterFailure(s, "a", FullReshuffle, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	for run, node := range after.Plan.Assign {
		if node == "a" {
			t.Fatalf("run %s on failed node", run)
		}
	}
	if _, err := RescheduleAfterFailure(s, "nope", MinimalMove, StayPut); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := RescheduleAfterFailure(s, "a", ReschedulePolicy(9), StayPut); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMinimalMoveDisruptsLessThanReshuffle(t *testing.T) {
	nodes := plant(4)
	runs := []Run{
		{Name: "r1", Work: 90000, Deadline: 86400, PrevNode: "a"},
		{Name: "r2", Work: 70000, Deadline: 86400, PrevNode: "a"},
		{Name: "r3", Work: 50000, Deadline: 86400, PrevNode: "b"},
		{Name: "r4", Work: 40000, Deadline: 86400, PrevNode: "b"},
		{Name: "r5", Work: 30000, Deadline: 86400, PrevNode: "c"},
		{Name: "r6", Work: 20000, Deadline: 86400, PrevNode: "c"},
		{Name: "r7", Work: 15000, Deadline: 86400, PrevNode: "d"},
		{Name: "r8", Work: 10000, Deadline: 86400, PrevNode: "d"},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: StayPut})
	if err != nil {
		t.Fatal(err)
	}
	minimal, err := RescheduleAfterFailure(s, "a", MinimalMove, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	reshuffle, err := RescheduleAfterFailure(s, "a", FullReshuffle, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	nm, nr := len(MovedRuns(s, minimal)), len(MovedRuns(s, reshuffle))
	if nm > nr {
		t.Fatalf("minimal-move moved %d runs, reshuffle %d", nm, nr)
	}
	if nm != 2 {
		t.Fatalf("minimal-move moved %d runs, want exactly the 2 displaced", nm)
	}
	// The disruption metric counts assignment churn in full: a run whose
	// assignment disappears between plans registers as a move to the
	// empty node instead of vanishing from the count.
	trimmed := &Schedule{Plan: minimal.Plan.Clone()}
	delete(trimmed.Plan.Assign, "r3")
	if got := MovedRuns(minimal, trimmed); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("unassigning r3 registered moves %v, want [r3]", got)
	}
}

func TestReschedulePolicyStrings(t *testing.T) {
	for _, p := range []ReschedulePolicy{MinimalMove, FullReshuffle, ReschedulePolicy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestShellBackendGeneratesScripts(t *testing.T) {
	nodes := plant(2)
	runs := []Run{
		{Name: "tillamook", Work: 40000, Start: 10800, Deadline: 86400},
		{Name: "columbia", Work: 50000, Start: 7200, Deadline: 86400},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := ShellBackend{Repository: "/repo"}.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) != 2 {
		t.Fatalf("got %d scripts", len(scripts))
	}
	// Sorted by run name; commands reference the assigned node and start
	// time.
	if scripts[0].RunName != "columbia" || scripts[1].RunName != "tillamook" {
		t.Fatalf("order: %v, %v", scripts[0].RunName, scripts[1].RunName)
	}
	text := RenderScripts(scripts)
	for _, want := range []string{"02:00", "03:00", scripts[0].Node, "run_forecast.sh", "/repo"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scripts missing %q:\n%s", want, text)
		}
	}
	if _, err := (ShellBackend{}).Generate(nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestRoughCut(t *testing.T) {
	nodes := plant(2) // capacity 2×2×86400 = 345600 per day
	runs := mkRuns(100000, 100000)
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	rep := RoughCut(nodes, runs, 0, assign)
	if !rep.Feasible {
		t.Fatal("feasible plant reported infeasible")
	}
	if !almost(rep.TotalWork, 200000) || !almost(rep.TotalCapacity, 345600) {
		t.Fatalf("report = %+v", rep)
	}
	if !almost(rep.Headroom, 345600-200000) {
		t.Fatalf("Headroom = %v, want 145600", rep.Headroom)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
	// Overload flips feasibility.
	over := RoughCut(nodes, mkRuns(400000, 400000), 86400, nil)
	if over.Feasible || over.Headroom >= 0 {
		t.Fatalf("overloaded report = %+v", over)
	}
}
