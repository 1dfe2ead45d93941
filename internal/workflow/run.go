package workflow

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Default execution parameters. A run's simulation appends model output in
// DefaultIncrements chunks, and the master process re-scans for new data
// every DefaultPoll seconds — mirroring the repeated invocations of
// master_process.pl in the paper's Figure 4.
const (
	DefaultIncrements = 96
	DefaultPoll       = 60.0
	DefaultWorkers    = 1
)

// Config describes how one forecast run executes. SimNode/SimFS host the
// simulation and its model outputs; ProductNode/ProductFS host the master
// process, which observes input files in ProductFS and writes products
// there. In the factory's current architecture (and Architecture 1 of
// §4.2) these are the same node and filesystem; in Architecture 2 the
// products run at the public server against the rsync'd copies.
type Config struct {
	Spec        *forecast.Spec
	Dir         string // run directory, e.g. /runs/forecast-tillamook/2005-021
	SimNode     *cluster.Node
	SimFS       *vfs.FS
	ProductNode *cluster.Node
	ProductFS   *vfs.FS
	Increments  int     // simulation output increments (default DefaultIncrements)
	Workers     int     // max concurrent product tasks (default DefaultWorkers)
	Poll        float64 // master process scan interval (default DefaultPoll)
	OnDone      func(*Run)

	// Telemetry, when non-nil, receives workflow metrics and spans; Span
	// is the ID of the parent (typically the factory's per-run span) under
	// which the simulation and product-task spans nest.
	Telemetry *telemetry.Telemetry
	Span      int64
}

// productState tracks incremental progress of one product.
type productState struct {
	spec       forecast.ProductSpec
	inputs     []productInput
	totalIn    float64   // total input bytes this product will consume
	consumed   float64   // input bytes processed so far
	dispatched float64   // input bytes handed to an in-flight task
	outWritten int64     // product bytes written so far
	out        *vfs.File // the product's data file, once first written
	active     bool

	// taskName ("prod:<name>"), mTasks (the per-class task counter) and
	// done (the task completion handler) are resolved once at startup so
	// the dispatch path pays no string concatenation, registry lookup or
	// closure per task. span is the in-flight task's span.
	taskName string
	mTasks   *telemetry.Counter
	done     func()
	span     int64
}

// productInput is a model-output file a product reads; file is nil until
// the file exists.
type productInput struct {
	name  string
	total float64
	file  *vfs.File
}

func (p *productState) consumedFraction() float64 {
	if p.totalIn <= 0 {
		return 1
	}
	return p.consumed / p.totalIn
}

// Run is one executing forecast product run.
type Run struct {
	cfg Config
	eng *sim.Engine

	// Each output file grows only during the increments belonging to its
	// forecast day (1_salt.63 is complete halfway through a two-day run,
	// as in the paper's Figure 6): incBytes is the bytes appended per
	// active increment, incCount the number of active increments.
	incBytes   map[string]int64
	incCount   map[string]int
	outFiles   []*vfs.File // per Spec.Outputs entry, once first written
	days       int
	increments int
	incDone    int

	engine *ProductEngine // nil for simulation-only runs

	started  float64
	simEnd   float64
	finished bool
	endTime  float64

	simSpan       int64
	mIncrements   *telemetry.Counter
	mSimWalltimes *telemetry.Histogram

	// Co-location interference factors (1.0 when the simulation and the
	// product workflows run on different nodes, as in Architecture 2).
	simFactor  float64
	prodFactor float64
}

// OutputsDir returns the run's model-output directory.
func (r *Run) OutputsDir() string { return r.cfg.Dir + "/outputs" }

// ProductsDir returns the run's data-product directory.
func (r *Run) ProductsDir() string { return r.cfg.Dir + "/products" }

// ProcessDir returns the master process's working directory ("process" in
// Figures 6/7 of the paper).
func (r *Run) ProcessDir() string { return r.cfg.Dir + "/process" }

// OutputPath returns the path of a model-output file in the run directory.
func (r *Run) OutputPath(name string) string { return r.OutputsDir() + "/" + name }

// ProductPath returns the path a product's data accumulates at.
func (r *Run) ProductPath(name string) string { return r.ProductsDir() + "/" + name + "/data" }

// Spec returns the run's forecast spec.
func (r *Run) Spec() *forecast.Spec { return r.cfg.Spec }

// Started returns the virtual time the run was started.
func (r *Run) Started() float64 { return r.started }

// Node returns the node the simulation executes on.
func (r *Run) Node() *cluster.Node { return r.cfg.SimNode }

// SimProgress returns the fraction of simulation increments completed.
func (r *Run) SimProgress() float64 {
	return float64(r.incDone) / float64(r.increments)
}

// SimFinishedAt returns when the simulation completed (0 if not yet).
func (r *Run) SimFinishedAt() float64 { return r.simEnd }

// FinishedAt returns when the whole run (simulation + all products)
// completed (0 if not yet).
func (r *Run) FinishedAt() float64 { return r.endTime }

// Finished reports whether the run has fully completed.
func (r *Run) Finished() bool { return r.finished }

// Walltime returns the run's wall-clock duration, or NaN if unfinished.
func (r *Run) Walltime() float64 {
	if !r.finished {
		return math.NaN()
	}
	return r.endTime - r.started
}

// TotalOutputBytes returns the exact total size the named output file will
// reach; both producer and (possibly remote) consumer derive totals from
// it.
func (r *Run) TotalOutputBytes(name string) int64 {
	return r.incBytes[name] * int64(r.incCount[name])
}

// Start begins executing the run. It panics on invalid configuration;
// runs are constructed by this library's planners from validated specs.
func Start(eng *sim.Engine, cfg Config) *Run {
	if cfg.Spec == nil {
		panic("workflow: Start with nil spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("workflow: %v", err))
	}
	if cfg.SimNode == nil || cfg.SimFS == nil {
		panic("workflow: Start needs a simulation node and filesystem")
	}
	if len(cfg.Spec.Products) > 0 && (cfg.ProductNode == nil || cfg.ProductFS == nil) {
		panic("workflow: Start needs a product node and filesystem")
	}
	if cfg.Increments <= 0 {
		cfg.Increments = DefaultIncrements
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Dir == "" {
		panic("workflow: Start needs a run directory")
	}

	r := &Run{
		cfg:        cfg,
		eng:        eng,
		increments: cfg.Increments,
		incBytes:   make(map[string]int64),
		started:    eng.Now(),
		simFactor:  1,
		prodFactor: 1,
	}
	if len(cfg.Spec.Products) > 0 && cfg.ProductNode == cfg.SimNode {
		// §4.2: running the simulation and product generation at the same
		// node makes both slower (memory and CPU interference).
		r.simFactor = forecast.SimColocationSlowdown
		r.prodFactor = forecast.ProductColocationSlowdown
	}
	r.incCount = make(map[string]int, len(cfg.Spec.Outputs))
	r.outFiles = make([]*vfs.File, len(cfg.Spec.Outputs))
	for _, o := range cfg.Spec.Outputs {
		if o.Day > r.days {
			r.days = o.Day
		}
	}
	if r.days < 1 {
		r.days = 1
	}
	totalOut := cfg.Spec.OutputBytes()
	for _, o := range cfg.Spec.Outputs {
		count := 0
		for i := 1; i <= cfg.Increments; i++ {
			if r.incrementDay(i) == o.Day {
				count++
			}
		}
		if count == 0 {
			// Degenerate (more days than increments): fold the file into
			// the final increment.
			count = 1
		}
		r.incCount[o.Name] = count
		per := int64(math.Round(totalOut * o.Share / float64(count)))
		if per < 1 {
			per = 1
		}
		r.incBytes[o.Name] = per
	}
	if tel := cfg.Telemetry; tel != nil {
		reg := tel.Registry()
		reg.Describe("workflow_sim_increments_total", "Simulation output increments completed.")
		reg.Describe("workflow_sim_walltime_seconds", "Simulation phase walltime per run.")
		r.mIncrements = reg.Counter("workflow_sim_increments_total", telemetry.Labels{"forecast": cfg.Spec.Name})
		r.mSimWalltimes = reg.Histogram("workflow_sim_walltime_seconds", nil, nil)
		r.simSpan = tel.Trace().Begin("simulation", "sim:"+cfg.Spec.Name, cfg.SimNode.Name(), cfg.Span)
	}
	if len(cfg.Spec.Products) > 0 {
		totals := make(map[string]int64, len(cfg.Spec.Outputs))
		for _, o := range cfg.Spec.Outputs {
			totals[o.Name] = r.TotalOutputBytes(o.Name)
		}
		r.engine = StartProducts(eng, ProductConfig{
			Products:    cfg.Spec.Products,
			Dir:         cfg.Dir,
			Node:        cfg.ProductNode,
			FS:          cfg.ProductFS,
			InputTotals: totals,
			Workers:     cfg.Workers,
			Poll:        cfg.Poll,
			WorkFactor:  r.prodFactor,
			OnDone:      func() { r.checkDone() },
			Telemetry:   cfg.Telemetry,
			Span:        cfg.Span,
		})
	}

	r.submitIncrement()
	return r
}

// submitIncrement runs the next simulation chunk.
func (r *Run) submitIncrement() {
	work := r.simFactor * r.cfg.Spec.SimWork() / float64(r.increments)
	label := fmt.Sprintf("sim:%s[%d/%d]", r.cfg.Spec.Name, r.incDone+1, r.increments)
	r.cfg.SimNode.Submit(label, work, r.incrementDone)
}

// incrementDay maps a 1-based increment index to the forecast day it
// simulates.
func (r *Run) incrementDay(i int) int {
	day := (i*r.days + r.increments - 1) / r.increments
	if day < 1 {
		day = 1
	}
	if day > r.days {
		day = r.days
	}
	return day
}

// incrementDone appends the increment's output bytes and continues.
func (r *Run) incrementDone() {
	r.incDone++
	day := r.incrementDay(r.incDone)
	for i, o := range r.cfg.Spec.Outputs {
		grow := o.Day == day
		if r.incCount[o.Name] == 1 {
			// Degenerate fold-in: append once, on the final increment of
			// the file's day (or the run for out-of-range days).
			grow = r.incDone == r.increments
		}
		if !grow {
			continue
		}
		if r.outFiles[i] == nil {
			r.outFiles[i] = create(r.cfg.SimFS, r.OutputPath(o.Name))
		}
		if err := r.outFiles[i].Append(r.incBytes[o.Name]); err != nil {
			panic(fmt.Sprintf("workflow: append output: %v", err))
		}
	}
	r.mIncrements.Inc()
	if r.incDone < r.increments {
		r.submitIncrement()
		return
	}
	r.simEnd = r.eng.Now()
	r.cfg.Telemetry.Trace().End(r.simSpan)
	r.mSimWalltimes.Observe(r.simEnd - r.started)
	r.checkDone()
}

// checkDone finishes the run when the simulation and every product are
// complete.
func (r *Run) checkDone() {
	if r.finished || r.incDone < r.increments {
		return
	}
	if r.engine != nil && !r.engine.Finished() {
		return
	}
	r.finished = true
	r.endTime = r.eng.Now()
	if r.cfg.OnDone != nil {
		r.cfg.OnDone(r)
	}
}
