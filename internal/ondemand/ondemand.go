// Package ondemand adds made-to-order products to the factory — the
// future work named in the paper's conclusion ("we are investigating how
// to incorporate made-to-order (on-demand) products into the system along
// with the made-to-stock products currently manufactured in the factory").
//
// Requests for custom products (a transect at a new location, an
// animation over specific depths, a hindcast product) arrive during the
// production day. Requests are best effort: they carry no deadline or
// priority of their own. An admission policy decides, per request,
// whether to run it now — and where — or defer it until the
// made-to-stock forecasts are safe, or reject it. The deadline-aware
// policy uses ForeMan's completion-time predictor as a what-if oracle: a
// request is only placed on a node if the resulting plan still meets
// every made-to-stock deadline.
package ondemand

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Request is one made-to-order product request, served best effort.
type Request struct {
	ID      string
	Arrival float64 // seconds after midnight
	Work    float64 // reference CPU-seconds to compute the product
}

// Outcome classifies what happened to a request.
type Outcome int

// Request outcomes.
const (
	// Admitted requests ran immediately on some node.
	Admitted Outcome = iota
	// Deferred requests waited until the made-to-stock runs finished.
	Deferred
	// Rejected requests were never run.
	Rejected
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case Deferred:
		return "deferred"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Policy decides placement for a request at its arrival instant.
type Policy interface {
	// Decide returns the chosen node name for immediate execution, or ""
	// with an outcome of Deferred/Rejected. state describes the factory
	// at the arrival instant.
	Decide(req Request, state *State) (node string, outcome Outcome)
	fmt.Stringer
}

// State is the factory's condition at a decision instant.
type State struct {
	Now   float64
	Nodes []core.NodeInfo
	// Stock is the plan of made-to-stock runs with their REMAINING work
	// at Now (completed runs are absent).
	Stock *core.Plan
	// Active is the number of jobs currently executing per node
	// (made-to-stock and already-admitted requests).
	Active map[string]int
}

// GreedyPolicy places every request on the node with the fewest active
// jobs, ignoring made-to-stock deadlines — the baseline that shows why
// admission control matters.
type GreedyPolicy struct{}

// Decide implements Policy.
func (GreedyPolicy) Decide(req Request, state *State) (string, Outcome) {
	best := ""
	bestActive := 0
	for _, n := range state.Nodes {
		if n.Down {
			continue
		}
		a := state.Active[n.Name]
		if best == "" || a < bestActive {
			best, bestActive = n.Name, a
		}
	}
	if best == "" {
		return "", Rejected
	}
	return best, Admitted
}

func (GreedyPolicy) String() string { return "greedy" }

// DeadlineAwarePolicy admits a request only onto a node where the
// predictor says every made-to-stock run still meets its deadline with
// the request's work added; otherwise the request is deferred.
type DeadlineAwarePolicy struct{}

// Decide implements Policy.
func (DeadlineAwarePolicy) Decide(req Request, state *State) (string, Outcome) {
	type candidate struct {
		node       string
		completion float64
	}
	var best *candidate
	for _, n := range state.Nodes {
		if n.Down {
			continue
		}
		trial := state.Stock.Clone()
		trial.Runs = append(trial.Runs, core.Run{Name: "ondemand:" + req.ID, Work: req.Work, Start: state.Now})
		trial.Assign["ondemand:"+req.ID] = n.Name
		pred, err := trial.Predict()
		if err != nil {
			continue
		}
		if !pred.Feasible(trial) {
			continue
		}
		c := pred.Completion["ondemand:"+req.ID]
		if best == nil || c < best.completion {
			best = &candidate{node: n.Name, completion: c}
		}
	}
	if best != nil {
		return best.node, Admitted
	}
	return "", Deferred
}

func (DeadlineAwarePolicy) String() string { return "deadline-aware" }

// RequestResult is one request's fate.
type RequestResult struct {
	Request   Request
	Outcome   Outcome
	Node      string
	Started   float64
	Completed float64 // NaN if never ran
}

// Latency is completion minus arrival (NaN if never ran).
func (r RequestResult) Latency() float64 { return r.Completed - r.Request.Arrival }

// Config describes an on-demand simulation: a plant, the day's
// made-to-stock runs, the request stream, and the admission policy.
// A node's Down state holds for the whole day.
type Config struct {
	Nodes    []core.NodeInfo
	Stock    []core.Run        // made-to-stock runs (with Start, Deadline)
	Assign   map[string]string // stock assignment
	Requests []Request
	Policy   Policy
}

// Result summarizes a simulated day.
type Result struct {
	Requests []RequestResult
	// StockCompletion holds actual completion times of made-to-stock runs.
	StockCompletion map[string]float64
	// StockLate lists made-to-stock runs that missed their deadlines,
	// sorted.
	StockLate []string
}

// Count returns how many requests had the outcome.
func (r Result) Count(o Outcome) int {
	n := 0
	for _, rr := range r.Requests {
		if rr.Outcome == o {
			n++
		}
	}
	return n
}

// MeanLatency averages latency over requests that ran.
func (r Result) MeanLatency() float64 {
	var sum float64
	n := 0
	for _, rr := range r.Requests {
		if !math.IsNaN(rr.Completed) {
			sum += rr.Latency()
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Run simulates the day on the discrete-event engine.
func Run(cfg Config) (Result, error) {
	plan := &core.Plan{Nodes: cfg.Nodes, Runs: cfg.Stock, Assign: cfg.Assign}
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Policy == nil {
		cfg.Policy = DeadlineAwarePolicy{}
	}

	eng := sim.NewEngine()
	sched := eng.Scope("ondemand")
	cl := cluster.New(eng)
	for _, n := range cfg.Nodes {
		node := cl.AddNode(n.Name, n.CPUs, n.Speed)
		if n.Down {
			node.Fail()
		}
	}

	res := Result{StockCompletion: make(map[string]float64, len(cfg.Stock))}

	// Track remaining stock work for what-if states.
	stockJobs := make(map[string]*cluster.Job, len(cfg.Stock))
	stockDone := 0
	for _, r := range cfg.Stock {
		r := r
		sched.At(r.Start, func() {
			node := cl.Node(cfg.Assign[r.Name])
			stockJobs[r.Name] = node.Submit("stock:"+r.Name, r.Work, func() {
				res.StockCompletion[r.Name] = eng.Now()
				delete(stockJobs, r.Name)
				stockDone++
			})
		})
	}

	// Deferred requests queue here and drain when the stock finishes.
	var deferred []*RequestResult
	results := make([]*RequestResult, len(cfg.Requests))

	runRequest := func(rr *RequestResult, nodeName string) {
		rr.Node = nodeName
		rr.Started = eng.Now()
		cl.Node(nodeName).Submit("ondemand:"+rr.Request.ID, rr.Request.Work, func() {
			rr.Completed = eng.Now()
		})
	}

	leastLoadedUp := func() string {
		best, bestActive := "", 0
		for _, n := range cfg.Nodes {
			node := cl.Node(n.Name)
			if node.Down() {
				continue
			}
			if best == "" || node.Active() < bestActive {
				best, bestActive = n.Name, node.Active()
			}
		}
		return best
	}

	// drainDeferred runs the deferred requests, in arrival order, once
	// the stock has finished. On a plant with every node down none of
	// them ever runs.
	drainDeferred := func() {
		if stockDone < len(cfg.Stock) {
			return
		}
		for _, rr := range deferred {
			if node := leastLoadedUp(); node != "" {
				runRequest(rr, node)
			}
		}
		deferred = nil
	}

	// currentState snapshots remaining stock work for the policy.
	currentState := func() *State {
		now := eng.Now()
		st := &State{
			Now:    now,
			Nodes:  cfg.Nodes,
			Active: make(map[string]int, len(cfg.Nodes)),
		}
		for _, n := range cfg.Nodes {
			st.Active[n.Name] = cl.Node(n.Name).Active()
		}
		stock := &core.Plan{Nodes: cfg.Nodes, Assign: map[string]string{}}
		for _, r := range cfg.Stock {
			job, running := stockJobs[r.Name]
			if _, finished := res.StockCompletion[r.Name]; finished {
				continue
			}
			rem := r
			rem.Start = now
			if running {
				rem.Work = job.Remaining()
			} else if r.Start > now {
				rem.Start = r.Start // not yet launched
			}
			stock.Runs = append(stock.Runs, rem)
			stock.Assign[rem.Name] = cfg.Assign[r.Name]
		}
		st.Stock = stock
		return st
	}

	reqs := append([]Request(nil), cfg.Requests...)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].ID < reqs[j].ID
	})
	for i, req := range reqs {
		i, req := i, req
		results[i] = &RequestResult{Request: req, Completed: math.NaN()}
		sched.At(req.Arrival, func() {
			node, outcome := cfg.Policy.Decide(req, currentState())
			results[i].Outcome = outcome
			switch outcome {
			case Admitted:
				runRequest(results[i], node)
			case Deferred:
				deferred = append(deferred, results[i])
			}
		})
	}

	// Poll for stock completion to drain deferred requests (the night
	// shift picks up what the day deferred). The horizon bounds the
	// simulation when a down node wedges the stock forever.
	const horizon = 7 * 86400.0
	var nightShift func()
	nightShift = func() {
		drainDeferred()
		if (len(deferred) > 0 || stockDone < len(cfg.Stock)) && eng.Now() < horizon {
			sched.After(300, nightShift)
		}
	}
	sched.After(300, nightShift)

	eng.Run()

	for _, rr := range results {
		res.Requests = append(res.Requests, *rr)
	}
	for _, r := range cfg.Stock {
		if r.Deadline <= 0 {
			continue
		}
		// A run that never completed (wedged on a down node until the
		// horizon) is late too — the missing map entry must not read as
		// completion at t=0.
		completion, finished := res.StockCompletion[r.Name]
		if !finished || completion > r.Deadline {
			res.StockLate = append(res.StockLate, r.Name)
		}
	}
	sort.Strings(res.StockLate)
	return res, nil
}
