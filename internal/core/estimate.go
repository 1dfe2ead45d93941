package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/forecast"
	"repro/internal/logs"
)

// Estimator predicts forecast running times from the statistics database
// of past runs (§4.3.2): the base estimate comes from the most recent
// completed run of the same forecast, scaled linearly by the timestep
// ratio, near-linearly by the mesh-side ratio, by the relative speed of
// the source and target nodes, and by a user-supplied adjustment factor
// for code-version changes ("a programmer may estimate that a new code
// version will run 10% faster").
type Estimator struct {
	byForecast map[string][]*logs.RunRecord // completed runs, day ascending
	nodeSpeed  map[string]float64
}

// NewEstimator indexes the completed records by forecast. nodes supplies
// the relative speed of every node that appears in history or as an
// estimation target.
func NewEstimator(records []*logs.RunRecord, nodes []NodeInfo) *Estimator {
	e := &Estimator{
		byForecast: make(map[string][]*logs.RunRecord),
		nodeSpeed:  make(map[string]float64, len(nodes)),
	}
	for _, n := range nodes {
		e.nodeSpeed[n.Name] = n.Speed
	}
	for _, r := range records {
		if r.Status != logs.StatusCompleted || r.Walltime <= 0 {
			continue
		}
		e.byForecast[r.Forecast] = append(e.byForecast[r.Forecast], r)
	}
	for _, rs := range e.byForecast {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Year != rs[j].Year {
				return rs[i].Year < rs[j].Year
			}
			return rs[i].Day < rs[j].Day
		})
	}
	return e
}

// Request describes one estimation question: how long will this forecast
// take with these parameters on that node?
type Request struct {
	Forecast  string
	Timesteps int
	MeshSides int
	Node      string
	// Adjust is the user's code-change factor (1.0 = unchanged; 0.9 = the
	// programmer expects the new version to run 10% faster).
	Adjust float64
}

// Estimate is the answer: expected runtime on the target node, the
// equivalent work in reference CPU-seconds, and the historical record the
// estimate is based on. Caveats flag the situations §4.3.2 warns are hard
// to estimate automatically (code-version changes, large mesh changes).
type Estimate struct {
	Seconds float64
	Work    float64
	Basis   *logs.RunRecord
	Caveats []string
}

// Estimate computes a run-time estimate. It fails when the forecast has no
// completed history or the target node's speed is unknown — callers fall
// back to EstimateFromSpec for brand-new forecasts.
func (e *Estimator) Estimate(req Request) (Estimate, error) {
	hist := e.byForecast[req.Forecast]
	if len(hist) == 0 {
		return Estimate{}, fmt.Errorf("core: no completed history for forecast %q", req.Forecast)
	}
	return estimateFrom(hist[len(hist)-1], req, e.nodeSpeed)
}

// estimateFrom scales the basis record base to the request: node speeds,
// timesteps, mesh sides, the code-change factor, and the caveats §4.3.2
// asks for. Estimate and the EvaluateEstimates replay both answer through
// it, each picking the latest record of the history they hold.
func estimateFrom(base *logs.RunRecord, req Request, nodeSpeed map[string]float64) (Estimate, error) {
	targetSpeed, ok := nodeSpeed[req.Node]
	if !ok || targetSpeed <= 0 {
		return Estimate{}, fmt.Errorf("core: unknown target node %q", req.Node)
	}
	baseSpeed, ok := nodeSpeed[base.Node]
	if !ok || baseSpeed <= 0 {
		return Estimate{}, fmt.Errorf("core: history for %q ran on unknown node %q", req.Forecast, base.Node)
	}
	adjust := req.Adjust
	if adjust <= 0 {
		adjust = 1
	}
	timesteps := req.Timesteps
	if timesteps <= 0 {
		timesteps = base.Timesteps
	}
	sides := req.MeshSides
	if sides <= 0 {
		sides = base.MeshSides
	}
	if base.Timesteps <= 0 || base.MeshSides <= 0 {
		return Estimate{}, fmt.Errorf("core: history record for %q lacks timesteps/mesh data", req.Forecast)
	}

	// The base run's walltime on its node corresponds to this much work in
	// reference CPU-seconds (assuming it ran without heavy contention — a
	// limitation the paper shares, since its statistics are walltimes).
	work := base.Walltime * baseSpeed
	work *= float64(timesteps) / float64(base.Timesteps)
	work *= float64(sides) / float64(base.MeshSides)
	work *= adjust

	// §4.3.2's warnings: code-version effects are "more difficult to
	// automate", and mesh changes "may also affect run times" beyond the
	// side count (depth changes) and "often accompany code version
	// changes". Surface those situations rather than estimating silently.
	var caveats []string
	if adjust != 1 {
		caveats = append(caveats,
			fmt.Sprintf("code-change factor %.2f is a user estimate, not measured history", adjust))
	}
	ratio := float64(sides) / float64(base.MeshSides)
	if ratio > 1.5 || ratio < 0.67 {
		caveats = append(caveats,
			fmt.Sprintf("mesh changed %.0f%% in sides; other mesh properties (e.g. depth) may shift run time further",
				100*math.Abs(ratio-1)))
	}
	// Finite history can still overflow: a walltime near the float64
	// limit scaled up by a timestep ratio. A NaN walltime is not caught by
	// the Walltime <= 0 filter either. A plan must never see such work:
	// the predictor cannot retire an infinite or NaN run.
	seconds := work / targetSpeed
	if !isFinite(work) || !isFinite(seconds) {
		return Estimate{}, fmt.Errorf("core: estimate for %q from its %d-%03d run is not finite (work %v)",
			req.Forecast, base.Year, base.Day, work)
	}
	return Estimate{
		Seconds: seconds,
		Work:    work,
		Basis:   base,
		Caveats: caveats,
	}, nil
}

// EstimateFromSpec derives an estimate from a forecast specification's
// work model — the fallback when a forecast has never run (ForeMan seeds
// new forecasts this way until real statistics accumulate).
func EstimateFromSpec(spec *forecast.Spec, node NodeInfo) Estimate {
	work := spec.TotalWork()
	return Estimate{Seconds: work / node.Speed, Work: work}
}

// PlanRuns builds planner inputs for a production day from forecast specs
// and history: each spec becomes a Run with estimated work, its start
// offset, deadline, priority, and — when history exists — its previous
// node as the default assignment.
func (e *Estimator) PlanRuns(specs []*forecast.Spec, nodes []NodeInfo) []Run {
	byName := make(map[string]NodeInfo, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
	}
	runs := make([]Run, 0, len(specs))
	for _, spec := range specs {
		r := Run{
			Name:     spec.Name,
			Start:    spec.StartOffset,
			Deadline: spec.Deadline,
			Priority: spec.Priority,
		}
		hist := e.byForecast[spec.Name]
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			r.PrevNode = last.Node
			adjust := 1.0
			if last.CodeFactor > 0 && spec.Code.CostFactor > 0 {
				adjust = spec.Code.CostFactor / last.CodeFactor
			}
			est, err := e.Estimate(Request{
				Forecast:  spec.Name,
				Timesteps: spec.Timesteps,
				MeshSides: spec.Mesh.Sides,
				Node:      last.Node,
				Adjust:    adjust,
			})
			if err == nil {
				r.Work = est.Work
				runs = append(runs, r)
				continue
			}
		}
		// New forecast (or unusable history): seed from the work model on
		// any node — work is node-independent.
		r.Work = spec.TotalWork()
		runs = append(runs, r)
	}
	return runs
}
