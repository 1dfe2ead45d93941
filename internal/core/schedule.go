package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// ScheduleOptions configures BuildSchedule.
type ScheduleOptions struct {
	Heuristic Heuristic
	// AllowDrop lets the scheduler drop the lowest-priority runs when no
	// assignment meets every deadline (§4.1: ForeMan "may automatically
	// delay or drop lower priority forecasts if needed").
	AllowDrop bool
	// fullRepredict forces a from-scratch full-plan sweep after every
	// drop instead of the incremental re-sweep — the pre-incremental
	// behaviour, kept as the benchmark baseline and the cross-validation
	// reference.
	fullRepredict bool
}

// Schedule is a packed, predicted plan. Its what-if methods (Move, Delay)
// and the drop loop update Prediction incrementally and in place: only
// the nodes an edit touches are re-swept, and the Completion map is
// patched rather than replaced. Callers that need a frozen snapshot of a
// prediction across edits must copy the map.
type Schedule struct {
	Plan       *Plan
	Prediction Prediction
	Dropped    []string // runs dropped to restore feasibility

	pred *predictor // incremental prediction engine (nil until first sweep)
}

// Late returns the runs still predicted to miss their deadlines.
func (s *Schedule) Late() []string { return s.Prediction.Late(s.Plan) }

// Feasible reports whether the schedule meets every deadline.
func (s *Schedule) Feasible() bool { return s.Prediction.Feasible(s.Plan) }

// BuildSchedule packs runs onto nodes, predicts completion times, and —
// when allowed — drops the lowest-priority runs until the remainder is
// feasible. The input slices are cloned: the plan owns its runs and
// nodes, so the drop loop's in-place shifting and later Delay edits never
// corrupt the caller's data. The plan is validated once, by Pack; every
// later edit re-sweeps only the affected nodes.
func BuildSchedule(nodes []NodeInfo, runs []Run, opts ScheduleOptions) (*Schedule, error) {
	var tr *telemetry.Tracer
	var span int64
	if t := plannerTelemetry(); t != nil {
		t.Registry().Describe("core_planner_invocations_total", "Planner passes executed, by pass and heuristic.")
		t.Registry().Counter("core_planner_invocations_total",
			telemetry.Labels{"pass": "schedule", "heuristic": opts.Heuristic.String()}).Inc()
		tr = t.Trace()
		span = tr.Begin("planner", "schedule:"+opts.Heuristic.String(), "planner", 0)
	}
	defer tr.End(span)
	nodes = append([]NodeInfo(nil), nodes...)
	runs = append([]Run(nil), runs...)
	assign, err := Pack(nodes, runs, opts.Heuristic)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Nodes: nodes, Runs: runs, Assign: assign}
	s := &Schedule{Plan: plan}
	s.resyncValidated() // Pack already validated the plan
	if !opts.AllowDrop {
		return s, nil
	}
	// Drop at most all but one run: an overloaded plant still runs its
	// most important forecast, late or not.
	for len(s.Dropped) < len(runs)-1 {
		victim, ok := s.dropCandidate()
		if !ok {
			break
		}
		s.drop(victim)
		tr.SetArg(span, "dropped", strconv.Itoa(len(s.Dropped)))
		if opts.fullRepredict {
			if err := s.repredict(); err != nil {
				return nil, err
			}
		} else {
			s.flushDirty()
		}
	}
	return s, nil
}

// dropCandidate picks the lowest-priority run on any node with a late run
// (smallest priority, then largest work, then name), or ok=false when no
// run is late. With the incremental engine the per-node late counts
// restrict the scan to the hot nodes' runs.
func (s *Schedule) dropCandidate() (string, bool) {
	if pr := s.pred; pr != nil {
		var victim *Run
		for n, late := range pr.late {
			if late == 0 {
				continue
			}
			runs := pr.byNode[n]
			for i := range runs {
				if victim == nil || betterVictim(&runs[i], victim) {
					victim = &runs[i]
				}
			}
		}
		if victim == nil {
			return "", false
		}
		return victim.Name, true
	}
	late := s.Late()
	if len(late) == 0 {
		return "", false
	}
	hotNodes := make(map[string]bool)
	for _, name := range late {
		hotNodes[s.Plan.Assign[name]] = true
	}
	var victim *Run
	for i := range s.Plan.Runs {
		r := &s.Plan.Runs[i]
		if !hotNodes[s.Plan.Assign[r.Name]] {
			continue
		}
		if victim == nil || betterVictim(r, victim) {
			victim = r
		}
	}
	if victim == nil {
		return "", false
	}
	return victim.Name, true
}

// betterVictim reports whether r should be dropped before the current
// victim: smallest priority, then largest work, then name — a total
// order, so the selection is independent of scan order.
func betterVictim(r, victim *Run) bool {
	if r.Priority != victim.Priority {
		return r.Priority < victim.Priority
	}
	if r.Work != victim.Work {
		return r.Work > victim.Work
	}
	return r.Name < victim.Name
}

// drop removes a run from the plan and marks its node dirty; the caller
// flushes (or fully repredicts) afterwards.
func (s *Schedule) drop(name string) {
	node, assigned := s.Plan.Assign[name]
	for i, r := range s.Plan.Runs {
		if r.Name == name {
			s.Plan.Runs = append(s.Plan.Runs[:i], s.Plan.Runs[i+1:]...)
			break
		}
	}
	delete(s.Plan.Assign, name)
	i, _ := slices.BinarySearch(s.Dropped, name) // names are unique
	s.Dropped = slices.Insert(s.Dropped, i, name)
	if s.pred == nil {
		return
	}
	if assigned {
		s.pred.removeRun(node, name)
		s.markDirty(node)
	} else {
		delete(s.Prediction.Completion, name)
	}
}

// repredict resynchronises the engine with a validated full sweep — the
// escape hatch for code that edits s.Plan directly (PlanBackfill).
func (s *Schedule) repredict() error {
	return s.resync()
}

// Move reassigns one run and repredicts — the what-if interaction of the
// ForeMan interface ("the tool will automatically recompute the expected
// completion times of all affected workflows"). Only the source and
// destination nodes are re-swept.
func (s *Schedule) Move(run, node string) error {
	if s.pred == nil {
		if err := s.Plan.Move(run, node); err != nil {
			return err
		}
		return s.repredict()
	}
	old, hadOld := s.Plan.Assign[run]
	if err := s.Plan.Move(run, node); err != nil {
		return err
	}
	if hadOld && old == node {
		return nil // no-op move: nothing changed
	}
	r, _ := s.Plan.Run(run)
	if hadOld {
		s.pred.removeRun(old, run)
		s.markDirty(old)
	}
	s.pred.byNode[node] = append(s.pred.byNode[node], r)
	s.markDirty(node)
	s.flushDirty()
	return nil
}

// Delay shifts a run's start time and repredicts — the response to late
// input data (§4.1: forecasts "may be delayed ... if data arrival is
// delayed"), or the other half of the ForeMan interaction ("their
// starting times may be adjusted"). Only the run's node is re-swept.
func (s *Schedule) Delay(run string, newStart float64) error {
	if newStart < 0 || !isFinite(newStart) {
		return fmt.Errorf("core: Delay(%q) to negative or non-finite start %v", run, newStart)
	}
	for i := range s.Plan.Runs {
		if s.Plan.Runs[i].Name != run {
			continue
		}
		// Mirror Validate's deadline-after-start rule up front: the
		// incremental path skips whole-plan revalidation, and a full
		// repredict would otherwise reject the plan after mutating it.
		if d := s.Plan.Runs[i].Deadline; d > 0 && newStart > d {
			return fmt.Errorf("core: Delay(%q) to start %v past deadline %v", run, newStart, d)
		}
		s.Plan.Runs[i].Start = newStart
		if s.pred == nil {
			return s.repredict()
		}
		if node, ok := s.Plan.Assign[run]; ok {
			nodeRuns := s.pred.byNode[node]
			for j := range nodeRuns {
				if nodeRuns[j].Name == run {
					nodeRuns[j].Start = newStart
					break
				}
			}
			s.markDirty(node)
			s.flushDirty()
		}
		return nil
	}
	return fmt.Errorf("core: unknown run %q", run)
}

// ReschedulePolicy selects how much of the plan may change when the plant
// changes under it.
type ReschedulePolicy int

// Rescheduling policies (§4.1: "when a new forecast or node is permanently
// added to the factory, rescheduling all forecasts may be beneficial, but
// when a node temporarily fails users may wish to reschedule only a
// subset").
const (
	// MinimalMove keeps every assignment on surviving nodes and re-packs
	// only the displaced runs.
	MinimalMove ReschedulePolicy = iota
	// FullReshuffle re-packs every run from scratch.
	FullReshuffle
)

// String names the policy.
func (p ReschedulePolicy) String() string {
	switch p {
	case MinimalMove:
		return "minimal-move"
	case FullReshuffle:
		return "full-reshuffle"
	default:
		return fmt.Sprintf("ReschedulePolicy(%d)", int(p))
	}
}

// RescheduleAfterFailure marks a node down and reassigns its runs. With
// MinimalMove, displaced runs go to the least-loaded surviving nodes; with
// FullReshuffle everything is re-packed with the given heuristic. The new
// schedule inherits the old one's per-node sweeps and re-sweeps only the
// nodes whose run set changed (plus the failed node).
func RescheduleAfterFailure(s *Schedule, failed string, pol ReschedulePolicy, h Heuristic) (*Schedule, error) {
	plan := s.Plan.Clone()
	found := false
	for i := range plan.Nodes {
		if plan.Nodes[i].Name == failed {
			plan.Nodes[i].Down = true
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("core: unknown node %q", failed)
	}

	switch pol {
	case FullReshuffle:
		assign, err := Pack(plan.Nodes, plan.Runs, h)
		if err != nil {
			return nil, err
		}
		plan.Assign = assign
	case MinimalMove:
		// Re-pack only the displaced runs against residual loads, tracked
		// by the same indexed structure Pack uses.
		var displaced []Run
		for _, r := range plan.Runs {
			if plan.Assign[r.Name] == failed {
				displaced = append(displaced, r)
				delete(plan.Assign, r.Name)
			}
		}
		sort.Slice(displaced, func(i, j int) bool {
			if displaced[i].Work != displaced[j].Work {
				return displaced[i].Work > displaced[j].Work
			}
			return displaced[i].Name < displaced[j].Name
		})
		ix := newLoadIndex(plan.Nodes)
		for _, r := range plan.Runs {
			if node, ok := plan.Assign[r.Name]; ok {
				ix.add(node, r.Work) // loads on down nodes are ignored
			}
		}
		for _, r := range displaced {
			best, ok := ix.least()
			if !ok {
				return nil, fmt.Errorf("core: no surviving node for run %q", r.Name)
			}
			plan.Assign[r.Name] = best.Name
			ix.add(best.Name, r.Work)
		}
	default:
		return nil, fmt.Errorf("core: unknown reschedule policy %v", pol)
	}

	out := &Schedule{Plan: plan, Dropped: append([]string(nil), s.Dropped...)}
	if s.pred == nil {
		if err := out.resync(); err != nil {
			return nil, err
		}
		return out, nil
	}
	changed := map[string]bool{failed: true}
	for _, r := range plan.Runs {
		before, hadBefore := s.Plan.Assign[r.Name]
		after, hasAfter := plan.Assign[r.Name]
		if before == after && hadBefore == hasAfter {
			continue
		}
		if hadBefore {
			changed[before] = true
		}
		if hasAfter {
			changed[after] = true
		}
	}
	out.adopt(s)
	for n := range changed {
		out.markDirty(n)
	}
	out.flushDirty()
	return out, nil
}

// MovedRuns returns the names of runs whose assignment differs between two
// schedules, sorted — the disruption metric for comparing policies. Runs
// that became newly assigned or newly unassigned between the schedules
// (moves from or to the empty node) count as moved.
func MovedRuns(before, after *Schedule) []string {
	movedSet := make(map[string]bool)
	for run, node := range after.Plan.Assign {
		if prev, ok := before.Plan.Assign[run]; !ok || prev != node {
			movedSet[run] = true
		}
	}
	for run := range before.Plan.Assign {
		if _, ok := after.Plan.Assign[run]; !ok {
			movedSet[run] = true
		}
	}
	moved := make([]string, 0, len(movedSet))
	for run := range movedSet {
		moved = append(moved, run)
	}
	sort.Strings(moved)
	return moved
}
