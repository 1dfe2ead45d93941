package core

import (
	"math"
	"slices"
	"sort"
)

// predictor is Schedule's incremental prediction engine. ForeMan must
// recompute "the expected completion times of all affected workflows"
// after every what-if move, delay, drop, or node failure (§4.1); because
// the CPU-sharing sweep of one node is independent of every other node,
// an edit that touches one or two nodes only needs those nodes re-swept.
// The engine caches each node's last sweep and tracks which nodes a plan
// edit dirtied, so interactive rescheduling costs O(affected nodes)
// instead of O(plant).
//
// Invariants (DESIGN.md §9):
//
//   - cache[n] is exactly the map the last sweepNode(n) returned. Sweep
//     maps are never mutated in place, only replaced wholesale, so
//     schedules derived through adopt() share them safely.
//   - byNode[n] holds copies of the runs currently assigned to node n and
//     is kept in lockstep with Plan.Runs/Plan.Assign by the Schedule
//     methods.
//   - late[n] is the number of deadline misses in cache[n]; the sum over
//     nodes is the plan's infeasibility count, maintained so the drop
//     loop never rescans the whole plan just to ask "still late?".
//   - Whenever no nodes are dirty, s.Prediction.Completion is
//     bit-for-bit equal to what a full s.Plan.Predict() sweep would
//     return — the equivalence the property tests and the CI
//     cross-validation gate assert.
//   - Every plan mutation must flow through the Schedule methods (Move,
//     Delay, drop, RescheduleAfterFailure). Code that edits s.Plan
//     directly must call s.repredict() to resynchronise from scratch —
//     PlanBackfill does exactly that.
type predictor struct {
	nodes  map[string]NodeInfo           // node name → info at last resync/adopt
	byNode map[string][]Run              // node name → runs assigned to it
	cache  map[string]map[string]float64 // node name → last sweep result
	late   map[string]int                // node name → deadline misses in cache
	dirty  map[string]bool               // nodes whose sweep is stale
}

// resync validates the plan and rebuilds the engine with a full sweep —
// the one-time Validate of construction; incremental edits afterwards
// never re-validate the whole plan.
func (s *Schedule) resync() error {
	if err := s.Plan.Validate(); err != nil {
		return err
	}
	s.resyncValidated()
	return nil
}

// resyncValidated rebuilds the engine from an already-validated plan.
func (s *Schedule) resyncValidated() {
	p := s.Plan
	pred, byNode, cache := p.sweepAll()
	pr := &predictor{
		nodes:  make(map[string]NodeInfo, len(p.Nodes)),
		byNode: byNode,
		cache:  cache,
		late:   make(map[string]int, len(p.Nodes)),
		dirty:  make(map[string]bool),
	}
	for _, n := range p.Nodes {
		pr.nodes[n.Name] = n
	}
	for name, m := range cache {
		pr.late[name] = lateCount(byNode[name], m)
	}
	s.pred = pr
	s.Prediction = pred
}

// adopt seeds a fresh schedule's engine from a predecessor over the same
// run set (a reschedule clone): unchanged nodes reuse the predecessor's
// sweep maps — bit-identical, since sweepNode is deterministic on
// identical inputs — and the caller marks the changed nodes dirty.
func (s *Schedule) adopt(from *Schedule) {
	p := s.Plan
	pr := &predictor{
		nodes:  make(map[string]NodeInfo, len(p.Nodes)),
		byNode: make(map[string][]Run, len(p.Nodes)),
		cache:  make(map[string]map[string]float64, len(from.pred.cache)),
		late:   make(map[string]int, len(from.pred.late)),
		dirty:  make(map[string]bool),
	}
	for _, n := range p.Nodes {
		pr.nodes[n.Name] = n
	}
	for _, r := range p.Runs {
		if node, ok := p.Assign[r.Name]; ok {
			pr.byNode[node] = append(pr.byNode[node], r)
		}
	}
	for n, m := range from.pred.cache {
		pr.cache[n] = m
	}
	for n, c := range from.pred.late {
		pr.late[n] = c
	}
	s.pred = pr
	s.Prediction = Prediction{Completion: make(map[string]float64, len(from.Prediction.Completion))}
	for name, t := range from.Prediction.Completion {
		s.Prediction.Completion[name] = t
	}
}

// markDirty queues nodes for re-sweep; empty names are ignored.
func (s *Schedule) markDirty(nodes ...string) {
	for _, n := range nodes {
		if n != "" {
			s.pred.dirty[n] = true
		}
	}
}

// flushDirty re-sweeps every dirty node and patches the prediction in
// place. Runs that left a re-swept node are re-resolved from the plan:
// dropped runs lose their entry, unassigned runs go to +Inf, and runs
// that moved take their new node's (freshly re-swept) value. If the
// engine finds the plan changed in a way it was not told about, it falls
// back to a full resync rather than serve a stale prediction.
func (s *Schedule) flushDirty() {
	pr := s.pred
	if pr == nil || len(pr.dirty) == 0 {
		return
	}
	names := make([]string, 0, len(pr.dirty))
	for n := range pr.dirty {
		names = append(names, n)
	}
	sort.Strings(names)
	type delta struct{ old, new map[string]float64 }
	deltas := make([]delta, 0, len(names))
	swept := 0
	for _, n := range names {
		node, known := pr.nodes[n]
		if !known {
			s.resyncValidated()
			return
		}
		runs := pr.byNode[n]
		m := sweepNode(node, runs)
		if !node.Down && len(runs) > 0 {
			swept++
		}
		deltas = append(deltas, delta{pr.cache[n], m})
		pr.cache[n] = m
		pr.late[n] = lateCount(runs, m)
	}
	for _, d := range deltas {
		for name, t := range d.new {
			s.Prediction.Completion[name] = t
		}
	}
	for _, d := range deltas {
		for name := range d.old {
			if _, still := d.new[name]; still {
				continue
			}
			if !s.refreshDeparted(name) {
				s.resyncValidated()
				return
			}
		}
	}
	pr.dirty = make(map[string]bool)
	countPredict("incremental", swept)
}

// refreshDeparted fixes the completion entry of a run that left a
// re-swept node, reporting false when its new node was never re-swept
// (the caller under-marked and a full resync is needed). A dropped run is
// found in the sorted Dropped list before any scan of the plan's runs.
func (s *Schedule) refreshDeparted(name string) bool {
	node, ok := s.Plan.Assign[name]
	if !ok {
		if _, dropped := slices.BinarySearch(s.Dropped, name); dropped {
			delete(s.Prediction.Completion, name)
			return true
		}
		if _, exists := s.Plan.Run(name); !exists {
			delete(s.Prediction.Completion, name)
			return true
		}
		s.Prediction.Completion[name] = math.Inf(1)
		return true
	}
	t, ok := s.pred.cache[node][name]
	if !ok {
		return false
	}
	s.Prediction.Completion[name] = t
	return true
}

// lateCount counts the deadline misses in one node's sweep (+Inf on a
// down node counts, matching Prediction.Late).
func lateCount(runs []Run, swept map[string]float64) int {
	late := 0
	for _, r := range runs {
		if r.Deadline > 0 && swept[r.Name] > r.Deadline {
			late++
		}
	}
	return late
}

// removeRun drops one run from a node's grouping.
func (pr *predictor) removeRun(node, name string) {
	runs := pr.byNode[node]
	for i := range runs {
		if runs[i].Name == name {
			pr.byNode[node] = append(runs[:i], runs[i+1:]...)
			return
		}
	}
}
