package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sameCompletion reports bit-for-bit equality of two completion maps
// (+Inf compares equal to +Inf; no tolerance anywhere else).
func sameCompletion(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// predictionMatchesFullSweep checks the incremental engine's equivalence
// guarantee: with no pending dirty nodes, Schedule.Prediction must equal a
// from-scratch full sweep of the current plan exactly.
func predictionMatchesFullSweep(t *testing.T, s *Schedule) bool {
	t.Helper()
	full, err := s.Plan.Predict()
	if err != nil {
		t.Logf("full predict failed: %v", err)
		return false
	}
	if !sameCompletion(s.Prediction.Completion, full.Completion) {
		t.Logf("incremental %v != full %v", s.Prediction.Completion, full.Completion)
		return false
	}
	return true
}

func randomPlant(rng *rand.Rand) ([]NodeInfo, []Run) {
	nodes := make([]NodeInfo, 2+rng.Intn(4))
	for i := range nodes {
		nodes[i] = NodeInfo{
			Name:  fmt.Sprintf("n%02d", i),
			CPUs:  1 + rng.Intn(4),
			Speed: 0.5 + rng.Float64(),
		}
	}
	runs := make([]Run, 1+rng.Intn(12))
	for i := range runs {
		r := Run{
			Name:     fmt.Sprintf("r%02d", i),
			Work:     float64(1 + rng.Intn(200000)),
			Start:    float64(rng.Intn(40000)),
			Priority: rng.Intn(5),
		}
		if rng.Intn(3) > 0 {
			r.Deadline = r.Start + float64(10000+rng.Intn(150000))
		}
		runs[i] = r
	}
	return nodes, runs
}

// Property: after BuildSchedule and an arbitrary sequence of incremental
// edits (moves, delays, node failures under either policy), the engine's
// patched prediction is identical to a full re-sweep — and the incremental
// drop loop picks the same victims and predictions as the full-repredict
// baseline.
func TestPropertyIncrementalMatchesFullSweep(t *testing.T) {
	f := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		nodes, runs := randomPlant(rng)
		h := Heuristic(rng.Intn(4))
		allowDrop := rng.Intn(2) == 0
		s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: h, AllowDrop: allowDrop})
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		if !predictionMatchesFullSweep(t, s) {
			return false
		}
		ref, err := BuildSchedule(nodes, runs, ScheduleOptions{
			Heuristic: h, AllowDrop: allowDrop, fullRepredict: true,
		})
		if err != nil {
			return false
		}
		if !sameCompletion(s.Prediction.Completion, ref.Prediction.Completion) ||
			!reflect.DeepEqual(s.Dropped, ref.Dropped) {
			t.Logf("seed %d: drop loop diverged from full-repredict baseline", seed)
			return false
		}

		var ancestors []*Schedule
		for op := 0; op < 8; op++ {
			switch rng.Intn(3) {
			case 0: // what-if move (possibly to a down node)
				if len(s.Plan.Runs) == 0 {
					continue
				}
				r := s.Plan.Runs[rng.Intn(len(s.Plan.Runs))]
				n := s.Plan.Nodes[rng.Intn(len(s.Plan.Nodes))]
				if err := s.Move(r.Name, n.Name); err != nil {
					t.Logf("seed %d: move: %v", seed, err)
					return false
				}
			case 1: // delay within the run's window
				if len(s.Plan.Runs) == 0 {
					continue
				}
				r := s.Plan.Runs[rng.Intn(len(s.Plan.Runs))]
				limit := r.Deadline
				if limit <= 0 {
					limit = 200000
				}
				if err := s.Delay(r.Name, rng.Float64()*limit); err != nil {
					t.Logf("seed %d: delay: %v", seed, err)
					return false
				}
			case 2: // node failure, both policies
				var up []string
				for _, n := range s.Plan.Nodes {
					if !n.Down {
						up = append(up, n.Name)
					}
				}
				if len(up) <= 1 {
					continue
				}
				pol := MinimalMove
				if rng.Intn(2) == 0 {
					pol = FullReshuffle
				}
				out, err := RescheduleAfterFailure(s, up[rng.Intn(len(up))], pol, h)
				if err != nil {
					t.Logf("seed %d: reschedule: %v", seed, err)
					return false
				}
				ancestors = append(ancestors, s)
				s = out
			}
			if !predictionMatchesFullSweep(t, s) {
				t.Logf("seed %d: diverged after op %d", seed, op)
				return false
			}
		}
		// Editing a derived schedule must never disturb its ancestors
		// (adopt shares sweep maps; they are replaced, not mutated).
		for _, old := range ancestors {
			if !predictionMatchesFullSweep(t, old) {
				t.Logf("seed %d: ancestor corrupted by descendant edits", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The parallel full-plan sweep must produce exactly what per-node serial
// sweeps produce. With 8 nodes × 240 runs this crosses the
// parallelSweepMinRuns threshold, so under -race it also exercises the
// worker pool for data races.
func TestParallelSweepMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := plant(8)
	runs := make([]Run, 240)
	for i := range runs {
		runs[i] = Run{
			Name:  fmt.Sprintf("r%03d", i),
			Work:  float64(1000 + rng.Intn(50000)),
			Start: float64(rng.Intn(20000)),
		}
	}
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Nodes: nodes, Runs: runs, Assign: assign}
	got, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, len(runs))
	for _, n := range nodes {
		byNode := make([]Run, 0, len(runs))
		for _, r := range runs {
			if assign[r.Name] == n.Name {
				byNode = append(byNode, r)
			}
		}
		for name, c := range predictNode(n, byNode) {
			want[name] = c
		}
	}
	if !sameCompletion(got.Completion, want) {
		t.Fatal("parallel sweep diverged from serial per-node sweeps")
	}
}

// BuildSchedule must clone its inputs: the drop loop's in-place shifting
// and Delay's element mutation may not corrupt the caller's slices.
func TestBuildScheduleClonesInputs(t *testing.T) {
	nodes := []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}}
	runs := []Run{
		{Name: "a", Work: 86400, Deadline: 86400, Priority: 3},
		{Name: "b", Work: 86400, Deadline: 86400, Priority: 2},
		{Name: "c", Work: 86400, Deadline: 86400, Priority: 1},
		{Name: "d", Work: 10000, Start: 100, Deadline: 86400, Priority: 5},
	}
	nodesOrig := append([]NodeInfo(nil), nodes...)
	runsOrig := append([]Run(nil), runs...)
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing, AllowDrop: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Dropped) == 0 {
		t.Fatal("scenario did not exercise the drop loop")
	}
	if err := s.Delay("d", 5000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, runsOrig) {
		t.Fatalf("caller's runs slice corrupted:\n got %+v\nwant %+v", runs, runsOrig)
	}
	if !reflect.DeepEqual(nodes, nodesOrig) {
		t.Fatalf("caller's nodes slice corrupted:\n got %+v\nwant %+v", nodes, nodesOrig)
	}
}

// dropCandidate's total order: lowest priority first, then largest work,
// then name — on both the incremental-engine path and the legacy scan.
func TestDropCandidateTieBreaking(t *testing.T) {
	nodes := []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}}
	runs := []Run{
		{Name: "z", Work: 60000, Deadline: 86400, Priority: 1},
		{Name: "y", Work: 60000, Deadline: 86400, Priority: 1},
		{Name: "x", Work: 70000, Deadline: 86400, Priority: 1},
		{Name: "w", Work: 90000, Deadline: 86400, Priority: 2},
	}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	victim, ok := s.dropCandidate()
	if !ok || victim != "x" {
		t.Fatalf("engine path victim = %q, %v; want x (priority 1, largest work)", victim, ok)
	}
	s.pred = nil // force the legacy whole-plan scan
	victim, ok = s.dropCandidate()
	if !ok || victim != "x" {
		t.Fatalf("legacy path victim = %q, %v; want x", victim, ok)
	}
	// Remove x: y and z tie on priority and work; name breaks the tie.
	runs2 := runs[:3]
	runs2[2] = runs[3]
	s, err = BuildSchedule(nodes, runs2, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	victim, ok = s.dropCandidate()
	if !ok || victim != "y" {
		t.Fatalf("victim = %q, %v; want y (name tiebreak)", victim, ok)
	}
}

// A failure with no surviving up node must surface an error from both
// policies, never panic.
func TestRescheduleNoSurvivingNode(t *testing.T) {
	nodes := plant(2)
	nodes[1].Down = true
	runs := mkRuns(1000, 2000)
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RescheduleAfterFailure(s, "a", MinimalMove, FirstFitDecreasing); err == nil {
		t.Fatal("MinimalMove with no survivors succeeded")
	}
	if _, err := RescheduleAfterFailure(s, "a", FullReshuffle, FirstFitDecreasing); err == nil {
		t.Fatal("FullReshuffle with no survivors succeeded")
	}
}

// Delaying a run past its deadline is rejected up front and leaves the
// schedule untouched.
func TestDelayPastDeadlineRejected(t *testing.T) {
	nodes := plant(1)
	runs := []Run{{Name: "a", Work: 10000, Start: 3600, Deadline: 50000}}
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delay("a", 60000); err == nil {
		t.Fatal("delay past deadline accepted")
	}
	if s.Plan.Runs[0].Start != 3600 {
		t.Fatalf("rejected delay mutated Start to %v", s.Plan.Runs[0].Start)
	}
	if !predictionMatchesFullSweep(t, s) {
		t.Fatal("rejected delay corrupted the prediction")
	}
}

// MovedRuns counts newly assigned and newly unassigned runs as moves
// to/from the empty node, not just node-to-node reassignments.
func TestMovedRunsCountsAssignmentChurn(t *testing.T) {
	before := &Schedule{Plan: &Plan{Assign: map[string]string{
		"a": "n1", "b": "n2", "c": "n1",
	}}}
	after := &Schedule{Plan: &Plan{Assign: map[string]string{
		"a": "n2", // reassigned
		"c": "n1", // unchanged
		"d": "n3", // newly assigned
		// b: newly unassigned
	}}}
	got := MovedRuns(before, after)
	want := []string{"a", "b", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MovedRuns = %v, want %v", got, want)
	}
	// The disruption metric is symmetric in which runs moved.
	rev := MovedRuns(after, before)
	if !reflect.DeepEqual(rev, want) {
		t.Fatalf("MovedRuns reversed = %v, want %v", rev, want)
	}
}
