package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Prediction holds expected completion times for every assigned run, in
// seconds after midnight. Runs on a down node (or left unassigned) get
// +Inf.
type Prediction struct {
	Completion map[string]float64
}

// Makespan returns the latest completion time, or 0 with no runs.
func (p Prediction) Makespan() float64 {
	var m float64
	for _, t := range p.Completion {
		if t > m {
			m = t
		}
	}
	return m
}

// Late returns the names of runs predicted to miss their deadline, sorted.
// Runs with no deadline (0) are never late.
func (p Prediction) Late(plan *Plan) []string {
	var late []string
	for _, r := range plan.Runs {
		if r.Deadline <= 0 {
			continue
		}
		t, ok := p.Completion[r.Name]
		if ok && t > r.Deadline {
			late = append(late, r.Name)
		}
	}
	sort.Strings(late)
	return late
}

// Feasible reports whether every run with a deadline is predicted to meet
// it.
func (p Prediction) Feasible(plan *Plan) bool { return len(p.Late(plan)) == 0 }

// Predict computes per-run completion times under the paper's CPU-sharing
// model: on a node with c CPUs of speed s, each of k concurrent serial
// runs progresses at s·min(1, c/k). The implementation is an analytic
// sweep per node — independent of the discrete-event simulator, and
// cross-validated against it in the tests, mirroring the paper's
// empirical validation of the sharing assumption. Nodes are swept
// independently, concurrently on large plans; Schedule additionally keeps
// the per-node sweeps cached so interactive edits re-sweep only the
// affected nodes (see incremental.go).
func (p *Plan) Predict() (Prediction, error) {
	if err := p.Validate(); err != nil {
		return Prediction{}, err
	}
	pred, _, _ := p.sweepAll()
	return pred, nil
}

// parallelSweepMinRuns is the assigned-run count below which a full-plan
// sweep stays serial: the goroutine fan-out only pays for itself once the
// per-node sweeps dominate scheduling overhead.
const parallelSweepMinRuns = 128

// sweepAll sweeps every node of an already-validated plan and returns the
// merged prediction plus the per-node grouping and per-node completion
// maps that seed Schedule's incremental engine. Up nodes are swept by a
// bounded worker pool (GOMAXPROCS-capped) when the plan is large enough;
// the merge order never affects the result because every run completes on
// exactly one node.
func (p *Plan) sweepAll() (Prediction, map[string][]Run, map[string]map[string]float64) {
	pred := Prediction{Completion: make(map[string]float64, len(p.Runs))}
	byNode := make(map[string][]Run, len(p.Nodes))
	assigned := 0
	for _, r := range p.Runs {
		node, ok := p.Assign[r.Name]
		if !ok {
			pred.Completion[r.Name] = math.Inf(1)
			continue
		}
		byNode[node] = append(byNode[node], r)
		assigned++
	}
	cache := make(map[string]map[string]float64, len(byNode))
	var up []NodeInfo
	for _, node := range p.Nodes {
		runs := byNode[node.Name]
		if len(runs) == 0 {
			continue
		}
		if node.Down {
			cache[node.Name] = sweepNode(node, runs)
			continue
		}
		up = append(up, node)
	}
	results := make([]map[string]float64, len(up))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(up) {
		workers = len(up)
	}
	if workers > 1 && assigned >= parallelSweepMinRuns {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i] = predictNode(up[i], byNode[up[i].Name])
				}
			}()
		}
		for i := range up {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range up {
			results[i] = predictNode(up[i], byNode[up[i].Name])
		}
	}
	for i, node := range up {
		cache[node.Name] = results[i]
	}
	for _, m := range cache {
		for name, t := range m {
			pred.Completion[name] = t
		}
	}
	countPredict("full", len(up))
	return pred, byNode, cache
}

// sweepNode is the single-node unit of prediction: +Inf for every run
// when the node is down, the processor-sharing sweep otherwise.
func sweepNode(node NodeInfo, runs []Run) map[string]float64 {
	if node.Down {
		m := make(map[string]float64, len(runs))
		for _, r := range runs {
			m[r.Name] = math.Inf(1)
		}
		return m
	}
	return predictNode(node, runs)
}

// predictNode sweeps one node's processor-sharing timeline. Each run is
// capped at one CPU and the node's capacity is shared max-min fairly,
// matching the simulator's water-filling discipline by an independent
// implementation.
//
// The active set is a slice kept in name order, the order the max-min
// fill visits it, so each run gets the same rate bits whichever order the
// runs arrived in. The next event is a minimum and the retired set does
// not depend on order, so neither needs a sort.
func predictNode(node NodeInfo, runs []Run) map[string]float64 {
	type state struct {
		name      string
		work      float64
		remaining float64
		rate      float64
	}
	// Arrivals by start time, then name: a total order, since Validate
	// refuses duplicate names and non-finite starts.
	pending := slices.Clone(runs)
	slices.SortFunc(pending, func(a, b Run) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return strings.Compare(a.Name, b.Name)
	})

	out := make(map[string]float64, len(runs))
	active := make([]state, 0, len(runs))
	t := 0.0
	if len(pending) > 0 {
		t = pending[0].Start
	}
	for len(pending) > 0 || len(active) > 0 {
		// Admit arrivals at time t.
		for len(pending) > 0 && pending[0].Start <= t {
			r := &pending[0]
			i, _ := slices.BinarySearchFunc(active, r.Name, func(s state, name string) int {
				return strings.Compare(s.name, name)
			})
			active = slices.Insert(active, i, state{name: r.Name, work: r.Work, remaining: r.Work})
			pending = pending[1:]
		}
		if len(active) == 0 {
			// Idle gap: jump to the next arrival.
			t = pending[0].Start
			continue
		}
		// Max-min fair rates for the active set, in name order.
		capacity := float64(node.CPUs) * node.Speed
		for i := range active {
			share := capacity / float64(len(active)-i)
			active[i].rate = math.Min(node.Speed, share)
			capacity -= active[i].rate
		}
		// Next event: earliest completion at current rates, or the next
		// arrival.
		nextEvent := math.Inf(1)
		for i := range active {
			if s := &active[i]; s.rate > 0 {
				if eta := t + s.remaining/s.rate; eta < nextEvent {
					nextEvent = eta
				}
			}
		}
		if len(pending) > 0 && pending[0].Start < nextEvent {
			nextEvent = pending[0].Start
		}
		dt := nextEvent - t
		for i := range active {
			active[i].remaining -= active[i].rate * dt
		}
		t = nextEvent
		// Retire completed runs (tolerate float dust), keeping the rest in
		// name order.
		kept := active[:0]
		for _, s := range active {
			if s.remaining <= 1e-9*math.Max(1, s.work) {
				out[s.name] = t
				continue
			}
			kept = append(kept, s)
		}
		active = kept
	}
	return out
}
