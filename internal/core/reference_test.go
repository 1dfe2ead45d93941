package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// The planner's inner loops as they were before they moved onto dense
// per-node state: Pack with its by-name load index, and predictNode with
// its map of active runs. They are kept verbatim as the references that
// TestPackMatchesReference, FuzzPackMatchesReference and
// TestPredictNodeMatchesReference hold the rewritten loops to, bit for
// bit. Only the names changed.

// referenceLoadIndex tracks normalized node loads (reference CPU-seconds over
// capacity) in a binary min-heap keyed by (load, name), replacing the
// planner's O(nodes) least-loaded scans with O(1) peeks and O(log nodes)
// updates. Only up nodes are indexed; charging load to an unindexed node
// is a no-op. Ties break by node name — the same node the old strict-less
// scan over name-sorted nodes picked.
type referenceLoadIndex struct {
	entries []referenceLoadEntry
	pos     map[string]int // node name → heap position
}

type referenceLoadEntry struct {
	node NodeInfo
	load float64 // reference CPU-seconds charged so far
	norm float64 // load / capacity
}

// newReferenceLoadIndex indexes the up nodes with zero initial load.
func newReferenceLoadIndex(nodes []NodeInfo) *referenceLoadIndex {
	ix := &referenceLoadIndex{pos: make(map[string]int, len(nodes))}
	for _, n := range nodes {
		if n.Down {
			continue
		}
		ix.pos[n.Name] = len(ix.entries)
		ix.entries = append(ix.entries, referenceLoadEntry{node: n})
	}
	for i := len(ix.entries)/2 - 1; i >= 0; i-- {
		ix.siftDown(i)
	}
	return ix
}

func (ix *referenceLoadIndex) lessAt(i, j int) bool {
	a, b := &ix.entries[i], &ix.entries[j]
	if a.norm != b.norm {
		return a.norm < b.norm
	}
	return a.node.Name < b.node.Name
}

func (ix *referenceLoadIndex) swapAt(i, j int) {
	ix.entries[i], ix.entries[j] = ix.entries[j], ix.entries[i]
	ix.pos[ix.entries[i].node.Name] = i
	ix.pos[ix.entries[j].node.Name] = j
}

func (ix *referenceLoadIndex) siftDown(i int) {
	for {
		smallest := i
		if l := 2*i + 1; l < len(ix.entries) && ix.lessAt(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < len(ix.entries) && ix.lessAt(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		ix.swapAt(i, smallest)
		i = smallest
	}
}

// add charges work reference CPU-seconds to a node. Loads only grow, so
// the entry can only sink in the heap.
func (ix *referenceLoadIndex) add(name string, work float64) {
	i, ok := ix.pos[name]
	if !ok {
		return
	}
	e := &ix.entries[i]
	e.load += work
	e.norm = e.load / e.node.Capacity()
	ix.siftDown(i)
}

// least returns the node with the smallest normalized load (name
// tiebreak), or false when no up node is indexed.
func (ix *referenceLoadIndex) least() (NodeInfo, bool) {
	if len(ix.entries) == 0 {
		return NodeInfo{}, false
	}
	return ix.entries[0].node, true
}

// load returns a node's accumulated reference CPU-seconds.
func (ix *referenceLoadIndex) load(name string) float64 {
	if i, ok := ix.pos[name]; ok {
		return ix.entries[i].load
	}
	return 0
}

// node looks up an indexed (up) node by name.
func (ix *referenceLoadIndex) node(name string) (NodeInfo, bool) {
	if i, ok := ix.pos[name]; ok {
		return ix.entries[i].node, true
	}
	return NodeInfo{}, false
}

// referencePack assigns every run to a node using the heuristic. The load model
// used for packing is capacity-seconds: a run contributes Work, a node
// offers Capacity() × window. Deadline feasibility of the resulting plan
// is the predictor's job — callers should Predict and, if needed, repair
// with delay/drop policies.
func referencePack(nodes []NodeInfo, runs []Run, h Heuristic) (map[string]string, error) {
	iters := 0
	if t := plannerTelemetry(); t != nil {
		reg := t.Registry()
		reg.Describe("core_planner_invocations_total", "Planner passes executed, by pass and heuristic.")
		reg.Describe("core_pack_iterations_total", "Bin-packing fit evaluations across all Pack calls.")
		reg.Counter("core_planner_invocations_total",
			telemetry.Labels{"pass": "pack", "heuristic": h.String()}).Inc()
		tr := t.Trace()
		span := tr.Begin("planner", "pack:"+h.String(), "planner", 0)
		defer func() {
			reg.Counter("core_pack_iterations_total", nil).Add(float64(iters))
			tr.SetArg(span, "iterations", strconv.Itoa(iters))
			tr.SetArg(span, "runs", strconv.Itoa(len(runs)))
			tr.End(span)
		}()
	}
	plan := &Plan{Nodes: nodes, Runs: runs, Assign: map[string]string{}}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ix := newReferenceLoadIndex(nodes)
	up := make([]NodeInfo, 0, len(ix.entries))
	for _, n := range nodes {
		if !n.Down {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		return nil, fmt.Errorf("core: no nodes available for packing")
	}
	sort.Slice(up, func(i, j int) bool { return up[i].Name < up[j].Name })

	assign := make(map[string]string, len(runs))

	place := func(r Run, node NodeInfo) {
		assign[r.Name] = node.Name
		ix.add(node.Name, r.Work)
	}
	leastLoaded := func() NodeInfo {
		iters++
		n, _ := ix.least()
		return n
	}
	// slack is the remaining capacity-seconds of a node within the run's
	// window after placing the run; negative means the window is
	// over-committed.
	slack := func(r Run, n NodeInfo) float64 {
		iters++
		window := r.Deadline - r.Start
		if r.Deadline <= 0 {
			// No deadline: pack against the rest of the production day
			// the run starts in. The modulus keeps the window positive
			// for runs starting past the first day (Start ≥ 86400),
			// which would otherwise fail every fit and silently fall
			// through to the least-loaded node.
			window = 86400 - math.Mod(r.Start, 86400)
		}
		return n.Capacity()*window - (ix.load(n.Name) + r.Work)
	}

	switch h {
	case StayPut:
		for _, r := range runs {
			if prev, ok := ix.node(r.PrevNode); ok {
				place(r, prev)
				continue
			}
			place(r, leastLoaded())
		}
		return assign, nil

	case FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing:
		ordered := append([]Run(nil), runs...)
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].Work != ordered[j].Work {
				return ordered[i].Work > ordered[j].Work
			}
			return ordered[i].Name < ordered[j].Name
		})
		for _, r := range ordered {
			var chosen *NodeInfo
			switch h {
			case FirstFitDecreasing:
				for i := range up {
					if slack(r, up[i]) >= 0 {
						chosen = &up[i]
						break
					}
				}
			case BestFitDecreasing:
				bestSlack := 0.0
				for i := range up {
					s := slack(r, up[i])
					if s >= 0 && (chosen == nil || s < bestSlack) {
						chosen = &up[i]
						bestSlack = s
					}
				}
			case WorstFitDecreasing:
				bestSlack := 0.0
				for i := range up {
					s := slack(r, up[i])
					if s >= 0 && (chosen == nil || s > bestSlack) {
						chosen = &up[i]
						bestSlack = s
					}
				}
			}
			if chosen == nil {
				// Nothing fits in the window: overload the least-loaded
				// node and let the deadline policy sort it out.
				n := leastLoaded()
				chosen = &n
			}
			place(r, *chosen)
		}
		return assign, nil

	default:
		return nil, fmt.Errorf("core: unknown heuristic %v", h)
	}
}

// referencePredictNode sweeps one node's processor-sharing timeline. Each run is
// capped at one CPU and the node's capacity is shared max-min fairly,
// matching the simulator's water-filling discipline by an independent
// implementation.
func referencePredictNode(node NodeInfo, runs []Run) map[string]float64 {
	type state struct {
		run       Run
		remaining float64
		rate      float64
	}
	// Arrivals sorted by start time (name tiebreak for determinism).
	pending := append([]Run(nil), runs...)
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].Start != pending[j].Start {
			return pending[i].Start < pending[j].Start
		}
		return pending[i].Name < pending[j].Name
	})

	out := make(map[string]float64, len(runs))
	active := make(map[string]*state)
	t := 0.0
	if len(pending) > 0 {
		t = pending[0].Start
	}
	// refill recomputes max-min fair rates for the active set.
	refill := func() {
		states := make([]*state, 0, len(active))
		for _, s := range active {
			states = append(states, s)
		}
		sort.Slice(states, func(i, j int) bool { return states[i].run.Name < states[j].run.Name })
		remaining := float64(node.CPUs) * node.Speed
		for i, s := range states {
			share := remaining / float64(len(states)-i)
			s.rate = math.Min(node.Speed, share)
			remaining -= s.rate
		}
	}

	for len(pending) > 0 || len(active) > 0 {
		// Admit arrivals at time t.
		for len(pending) > 0 && pending[0].Start <= t {
			r := pending[0]
			pending = pending[1:]
			active[r.Name] = &state{run: r, remaining: r.Work}
		}
		if len(active) == 0 {
			// Idle gap: jump to the next arrival.
			t = pending[0].Start
			continue
		}
		refill()
		// Next event: earliest completion at current rates, or the next
		// arrival.
		nextEvent := math.Inf(1)
		for _, s := range active {
			if s.rate > 0 {
				if eta := t + s.remaining/s.rate; eta < nextEvent {
					nextEvent = eta
				}
			}
		}
		if len(pending) > 0 && pending[0].Start < nextEvent {
			nextEvent = pending[0].Start
		}
		dt := nextEvent - t
		for _, s := range active {
			s.remaining -= s.rate * dt
		}
		t = nextEvent
		// Retire completed runs (tolerate float dust).
		var done []string
		for name, s := range active {
			if s.remaining <= 1e-9*math.Max(1, s.run.Work) {
				done = append(done, name)
			}
		}
		sort.Strings(done)
		for _, name := range done {
			out[name] = t
			delete(active, name)
		}
	}
	return out
}
