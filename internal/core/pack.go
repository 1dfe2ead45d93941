package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Heuristic selects a node-assignment strategy. The paper's ForeMan
// approximates optimal assignment with bin-packing heuristics [Coffman,
// Garey & Johnson]; StayPut is its default behaviour of keeping each
// forecast where it ran the previous day.
type Heuristic int

// Assignment heuristics.
const (
	// StayPut assigns each run to its PrevNode when that node exists and
	// is up, falling back to the least-loaded node.
	StayPut Heuristic = iota
	// FirstFitDecreasing places runs in decreasing work order on the
	// first node (name order) with enough slack in the run's window.
	FirstFitDecreasing
	// BestFitDecreasing places runs in decreasing work order on the
	// feasible node with the least remaining slack (tightest fit).
	BestFitDecreasing
	// WorstFitDecreasing places runs in decreasing work order on the node
	// with the most remaining slack (best balance).
	WorstFitDecreasing
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case StayPut:
		return "stay-put"
	case FirstFitDecreasing:
		return "first-fit-decreasing"
	case BestFitDecreasing:
		return "best-fit-decreasing"
	case WorstFitDecreasing:
		return "worst-fit-decreasing"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// loadIndex tracks normalized node loads (reference CPU-seconds over
// capacity) in a binary min-heap keyed by (load, name), replacing the
// planner's O(nodes) least-loaded scans with O(1) peeks and O(log nodes)
// updates. Only up nodes are indexed; charging load to an unindexed node
// is a no-op. Ties break by node name — the same node the old strict-less
// scan over name-sorted nodes picked.
//
// Per-node state is dense: a node's index is its position in the
// name-sorted nodes slice, and caps, loads, norms and pos are parallel to
// it, so Pack's fit scan reads slices instead of looking names up, and a
// heap swap rewrites two slice cells. (norm, name) is a total order over
// unique names, so the least node does not depend on the heap's layout.
type loadIndex struct {
	nodes []NodeInfo     // up nodes in name order
	caps  []float64      // nodes[i].Capacity()
	loads []float64      // reference CPU-seconds charged so far
	norms []float64      // loads[i] / caps[i]
	heap  []int          // node indices, least (norm, name) first
	pos   []int          // node index → heap position
	index map[string]int // node name → node index, written once
}

// newLoadIndex indexes the up nodes with zero initial load.
func newLoadIndex(nodes []NodeInfo) *loadIndex {
	ix := &loadIndex{index: make(map[string]int, len(nodes))}
	for _, n := range nodes {
		if !n.Down {
			ix.nodes = append(ix.nodes, n)
		}
	}
	slices.SortFunc(ix.nodes, func(a, b NodeInfo) int { return strings.Compare(a.Name, b.Name) })
	n := len(ix.nodes)
	ix.caps, ix.loads, ix.norms = make([]float64, n), make([]float64, n), make([]float64, n)
	ix.heap, ix.pos = make([]int, n), make([]int, n)
	for i, node := range ix.nodes {
		ix.caps[i] = node.Capacity()
		ix.index[node.Name] = i
		ix.heap[i], ix.pos[i] = i, i // every load is zero: name order is a heap
	}
	return ix
}

// lessAt orders heap positions by (norm, name); node indices follow name
// order.
func (ix *loadIndex) lessAt(i, j int) bool {
	a, b := ix.heap[i], ix.heap[j]
	if ix.norms[a] != ix.norms[b] {
		return ix.norms[a] < ix.norms[b]
	}
	return a < b
}

func (ix *loadIndex) swapAt(i, j int) {
	ix.heap[i], ix.heap[j] = ix.heap[j], ix.heap[i]
	ix.pos[ix.heap[i]] = i
	ix.pos[ix.heap[j]] = j
}

func (ix *loadIndex) siftDown(i int) {
	for {
		smallest := i
		if l := 2*i + 1; l < len(ix.heap) && ix.lessAt(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < len(ix.heap) && ix.lessAt(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		ix.swapAt(i, smallest)
		i = smallest
	}
}

// add charges work reference CPU-seconds to a node by name.
func (ix *loadIndex) add(name string, work float64) {
	if i, ok := ix.index[name]; ok {
		ix.addAt(i, work)
	}
}

// addAt charges work to node index i. Loads only grow, so the node can
// only sink in the heap.
func (ix *loadIndex) addAt(i int, work float64) {
	ix.loads[i] += work
	ix.norms[i] = ix.loads[i] / ix.caps[i]
	ix.siftDown(ix.pos[i])
}

// least returns the node with the smallest normalized load (name
// tiebreak), or false when no up node is indexed.
func (ix *loadIndex) least() (NodeInfo, bool) {
	if len(ix.heap) == 0 {
		return NodeInfo{}, false
	}
	return ix.nodes[ix.heap[0]], true
}

// Pack assigns every run to a node using the heuristic. The load model
// used for packing is capacity-seconds: a run contributes Work, a node
// offers Capacity() × window. Deadline feasibility of the resulting plan
// is the predictor's job — callers should Predict and, if needed, repair
// with delay/drop policies.
func Pack(nodes []NodeInfo, runs []Run, h Heuristic) (map[string]string, error) {
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
	ix := newLoadIndex(nodes)
	up := ix.nodes // name order
	if len(up) == 0 {
		return nil, fmt.Errorf("core: no nodes available for packing")
	}

	assign := make(map[string]string, len(runs))

	place := func(r Run, i int) {
		assign[r.Name] = up[i].Name
		ix.addAt(i, r.Work)
	}
	leastLoaded := func() int {
		iters++
		return ix.heap[0]
	}

	switch h {
	case StayPut:
		for _, r := range runs {
			if i, ok := ix.index[r.PrevNode]; ok {
				place(r, i)
				continue
			}
			place(r, leastLoaded())
		}
		return assign, nil

	case FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing:
		// Work, then name: a total order, since Validate refuses duplicate
		// names and non-finite work.
		ordered := slices.Clone(runs)
		slices.SortFunc(ordered, func(a, b Run) int {
			if a.Work != b.Work {
				return cmp.Compare(b.Work, a.Work)
			}
			return strings.Compare(a.Name, b.Name)
		})
		caps, loads := ix.caps, ix.loads
		for _, r := range ordered {
			// A node's slack is caps[i]*window - (loads[i] + r.Work): the
			// capacity-seconds left in the run's window after placing it;
			// negative means the window is over-committed.
			window := r.Deadline - r.Start
			if r.Deadline <= 0 {
				// No deadline: pack against the rest of the production day
				// the run starts in. The modulus keeps the window positive
				// for runs starting past the first day (Start ≥ 86400),
				// which would otherwise fail every fit and silently fall
				// through to the least-loaded node.
				window = 86400 - math.Mod(r.Start, 86400)
			}
			chosen := -1
			switch h {
			case FirstFitDecreasing:
				for i := range caps {
					iters++
					if caps[i]*window-(loads[i]+r.Work) >= 0 {
						chosen = i
						break
					}
				}
			case BestFitDecreasing:
				iters += len(caps)
				bestSlack := 0.0
				for i := range caps {
					s := caps[i]*window - (loads[i] + r.Work)
					if s >= 0 && (chosen < 0 || s < bestSlack) {
						chosen = i
						bestSlack = s
					}
				}
			case WorstFitDecreasing:
				iters += len(caps)
				bestSlack := 0.0
				for i := range caps {
					s := caps[i]*window - (loads[i] + r.Work)
					if s >= 0 && (chosen < 0 || s > bestSlack) {
						chosen = i
						bestSlack = s
					}
				}
			}
			if chosen < 0 {
				// Nothing fits in the window: overload the least-loaded
				// node and let the deadline policy sort it out.
				chosen = leastLoaded()
			}
			place(r, chosen)
		}
		return assign, nil

	default:
		return nil, fmt.Errorf("core: unknown heuristic %v", h)
	}
}

func nodeByName(nodes []NodeInfo, name string) (NodeInfo, bool) {
	for _, n := range nodes {
		if n.Name == name {
			return n, true
		}
	}
	return NodeInfo{}, false
}
