// Package cluster models the forecast factory's dedicated compute plant:
// a small set of multi-CPU nodes with known relative speeds, on which
// serial jobs execute under processor sharing.
//
// The model follows §4.1 of the paper exactly: a forecast run is serial
// (consumes at most one CPU), and when k runs share a node with c CPUs the
// available cycles are divided evenly, so each run progresses at
// speed × min(1, c/k). Work is measured in reference CPU-seconds: a job of
// work W finishes in W seconds when running alone on a speed-1.0 CPU.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/ps"
	"repro/internal/sim"
)

// Job and node lifecycle event kinds, delivered to Cluster.OnEvent
// observers. Submit/finish are per-job; add/fail/repair are per-node
// (Job is empty).
const (
	EventSubmit = "submit"
	EventFinish = "finish"
	EventAdd    = "add"
	EventFail   = "fail"
	EventRepair = "repair"
)

// JobEvent is one lifecycle transition on the cluster: a job starting or
// finishing, or a node joining, going down or coming back.
// Events fire at the virtual instant the transition takes effect, after
// the node's resource state already reflects it — an observer reading
// Node.Active or Node.BusySeconds from the callback sees the new state.
// The event carries the node itself, so an observer keeps its per-node
// state without looking the name up.
type JobEvent struct {
	Kind string
	Node *Node
	Job  string // job label; empty for add/fail/repair
	Time float64
}

// Node is one compute node. Create nodes through Cluster.AddNode.
type Node struct {
	name  string
	cpus  int
	speed float64
	res   *ps.Resource
	down  bool
	eng   *sim.Engine
	cl    *Cluster

	// Accounting for utilization reports.
	created float64
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// CPUs returns the number of CPUs.
func (n *Node) CPUs() int { return n.cpus }

// Speed returns the node's relative speed (1.0 = reference).
func (n *Node) Speed() float64 { return n.speed }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down }

// Active returns the number of jobs currently executing on the node.
func (n *Node) Active() int { return n.res.Active() }

// Created returns the virtual time the node joined the cluster.
func (n *Node) Created() float64 { return n.created }

// Capacity returns the node's aggregate capacity (CPUs × speed) in
// reference CPU-seconds per second, regardless of up/down state.
func (n *Node) Capacity() float64 { return float64(n.cpus) * n.speed }

// BusySeconds returns the capacity-seconds consumed on the node so far
// (∫ total rate dt), settled to the current virtual time.
func (n *Node) BusySeconds() float64 { return n.res.BusySeconds() }

// Utilization returns the fraction of the node's total CPU capacity
// consumed since the node was created.
func (n *Node) Utilization() float64 {
	elapsed := n.eng.Now() - n.created
	if elapsed <= 0 {
		return 0
	}
	return n.res.BusySeconds() / (n.res.Capacity() * elapsed)
}

// emit delivers a lifecycle event to the cluster's observer, if any.
func (n *Node) emit(kind, job string) {
	if n.cl != nil && n.cl.onEvent != nil {
		n.cl.onEvent(JobEvent{Kind: kind, Node: n, Job: job, Time: n.eng.Now()})
	}
}

// finished is the node resource's completion observer: it reports the
// finish after the resource has retimed and before the job's done runs.
func (n *Node) finished(label string) { n.emit(EventFinish, label) }

// Job is a job executing on a node: the node resource's task itself, whose
// Remaining is in reference CPU-seconds.
type Job = ps.Task

// Submit starts a serial job on the node. work is in reference
// CPU-seconds; done (may be nil) runs at completion. Submitting to a down
// node is allowed — the job waits frozen until the node is repaired, which
// models scripts queued against an unavailable machine.
func (n *Node) Submit(label string, work float64, done func()) *Job {
	t := n.res.Submit(label, work, done)
	n.emit(EventSubmit, label)
	return t
}

// Fail marks the node down. Running jobs stop progressing but keep their
// exact remaining work; they resume on Repair. This models the paper's
// "node becomes temporarily unavailable" scenario.
func (n *Node) Fail() {
	if n.down {
		return
	}
	n.down = true
	n.res.Freeze()
	n.emit(EventFail, "")
}

// Repair brings a failed node back.
func (n *Node) Repair() {
	if !n.down {
		return
	}
	n.down = false
	n.res.Thaw()
	n.emit(EventRepair, "")
}

// Cluster is a named collection of nodes sharing one simulation engine.
type Cluster struct {
	eng     *sim.Engine
	nodes   map[string]*Node
	order   []string
	onEvent func(JobEvent)
}

// New creates an empty cluster on the given engine.
func New(eng *sim.Engine) *Cluster {
	return &Cluster{eng: eng, nodes: make(map[string]*Node)}
}

// Engine returns the cluster's simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// OnEvent chains an observer for job and node lifecycle events after any
// previously registered one — the attachment point for the utilization
// sampler. Observers run synchronously at the virtual instant of each
// transition and must not mutate the cluster.
func (c *Cluster) OnEvent(fn func(JobEvent)) {
	if fn == nil {
		return
	}
	prev := c.onEvent
	if prev == nil {
		c.onEvent = fn // the only observer: no wrapper on the event path
		return
	}
	c.onEvent = func(ev JobEvent) {
		prev(ev)
		fn(ev)
	}
}

// AddNode creates a node with the given CPU count and relative speed and
// announces it to observers. Adding a duplicate name or non-positive
// parameters panics: cluster construction errors are programming errors
// in this library.
func (c *Cluster) AddNode(name string, cpus int, speed float64) *Node {
	if _, ok := c.nodes[name]; ok {
		panic(fmt.Sprintf("cluster: duplicate node %q", name))
	}
	if cpus <= 0 || speed <= 0 {
		panic(fmt.Sprintf("cluster: node %q needs positive cpus (%d) and speed (%v)", name, cpus, speed))
	}
	n := &Node{
		name:    name,
		cpus:    cpus,
		speed:   speed,
		eng:     c.eng,
		cl:      c,
		created: c.eng.Now(),
	}
	n.res = ps.NewResource(c.eng, "cpu:"+name, float64(cpus)*speed, speed, n.finished)
	c.nodes[name] = n
	c.order = append(c.order, name)
	sort.Strings(c.order)
	n.emit(EventAdd, "")
	return n
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Nodes returns all nodes in name order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.order))
	for i, name := range c.order {
		out[i] = c.nodes[name]
	}
	return out
}
