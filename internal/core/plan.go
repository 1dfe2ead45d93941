// Package core implements ForeMan, the forecast-factory management layer
// of §4.1 of the paper: run-time estimation from historical statistics,
// completion-time prediction under the factory's CPU-sharing model,
// bin-packing node assignment, priorities with delay/drop, rescheduling
// after node failures and forecast additions, rough-cut capacity planning,
// what-if moves, and script generation through a pluggable back end.
//
// Planning operates on one production day: each run has an earliest start
// (constrained by input data arrival), an estimated amount of work, a
// deadline (forecasts are perishable), and a priority. Work is measured in
// reference CPU-seconds — the isolated runtime on a speed-1.0 CPU — so
// moving a run to a faster or slower node scales its expected running time
// by the relative node speed, exactly as ForeMan does.
package core

import (
	"fmt"
	"math"
	"sort"
)

// NodeInfo describes a compute node for planning.
type NodeInfo struct {
	Name  string
	CPUs  int
	Speed float64 // relative speed; 1.0 = reference
	Down  bool
}

// Capacity returns the node's aggregate capacity in reference CPU-seconds
// per second (zero when down).
func (n NodeInfo) Capacity() float64 {
	if n.Down {
		return 0
	}
	return float64(n.CPUs) * n.Speed
}

// Run is one forecast run to place on the plant for a production day.
type Run struct {
	Name     string
	Work     float64 // reference CPU-seconds
	Start    float64 // earliest start, seconds after midnight
	Deadline float64 // desired completion, seconds after midnight
	Priority int     // higher = more important
	PrevNode string  // yesterday's node: the default assignment
}

// Plan is a set of runs, a plant, and an assignment of runs to nodes.
type Plan struct {
	Nodes  []NodeInfo
	Runs   []Run
	Assign map[string]string // run name → node name
}

// Validate checks structural consistency: unique names, known nodes,
// sensible run parameters. Every number must be finite: the predictor
// cannot retire a run of infinite or NaN work or start, or one on a node
// of such a speed, and a NaN or infinite deadline is never missed.
func (p *Plan) Validate() error {
	nodeSet := make(map[string]NodeInfo, len(p.Nodes))
	for _, n := range p.Nodes {
		if n.Name == "" {
			return fmt.Errorf("core: node with empty name")
		}
		if _, dup := nodeSet[n.Name]; dup {
			return fmt.Errorf("core: duplicate node %q", n.Name)
		}
		if n.CPUs <= 0 || n.Speed <= 0 || !isFinite(n.Speed) {
			return fmt.Errorf("core: node %q needs positive CPUs (%d) and a positive finite speed (%v)", n.Name, n.CPUs, n.Speed)
		}
		nodeSet[n.Name] = n
	}
	runSet := make(map[string]bool, len(p.Runs))
	for _, r := range p.Runs {
		if r.Name == "" {
			return fmt.Errorf("core: run with empty name")
		}
		if runSet[r.Name] {
			return fmt.Errorf("core: duplicate run %q", r.Name)
		}
		runSet[r.Name] = true
		if !isFinite(r.Work) || !isFinite(r.Start) || !isFinite(r.Deadline) {
			return fmt.Errorf("core: run %q has a non-finite work (%v), start (%v) or deadline (%v)",
				r.Name, r.Work, r.Start, r.Deadline)
		}
		if r.Work < 0 {
			return fmt.Errorf("core: run %q has negative work %v", r.Name, r.Work)
		}
		if r.Start < 0 {
			return fmt.Errorf("core: run %q has negative start %v", r.Name, r.Start)
		}
		if r.Deadline > 0 && r.Deadline < r.Start {
			return fmt.Errorf("core: run %q deadline %v before start %v", r.Name, r.Deadline, r.Start)
		}
	}
	for run, node := range p.Assign {
		if !runSet[run] {
			return fmt.Errorf("core: assignment for unknown run %q", run)
		}
		if _, ok := nodeSet[node]; !ok {
			return fmt.Errorf("core: run %q assigned to unknown node %q", run, node)
		}
	}
	return nil
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Node returns the named node info and whether it exists.
func (p *Plan) Node(name string) (NodeInfo, bool) {
	for _, n := range p.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return NodeInfo{}, false
}

// Run returns the named run and whether it exists.
func (p *Plan) Run(name string) (Run, bool) {
	for _, r := range p.Runs {
		if r.Name == name {
			return r, true
		}
	}
	return Run{}, false
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	c := &Plan{
		Nodes:  append([]NodeInfo(nil), p.Nodes...),
		Runs:   append([]Run(nil), p.Runs...),
		Assign: make(map[string]string, len(p.Assign)),
	}
	for k, v := range p.Assign {
		c.Assign[k] = v
	}
	return c
}

// runsOn returns the runs assigned to a node, in name order.
func (p *Plan) runsOn(node string) []Run {
	var out []Run
	for _, r := range p.Runs {
		if p.Assign[r.Name] == node {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Move reassigns one run to a node (the interactive drag in the ForeMan
// interface). It returns an error for unknown runs or nodes.
func (p *Plan) Move(run, node string) error {
	if _, ok := p.Run(run); !ok {
		return fmt.Errorf("core: unknown run %q", run)
	}
	if _, ok := p.Node(node); !ok {
		return fmt.Errorf("core: unknown node %q", node)
	}
	p.Assign[run] = node
	return nil
}
