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

// ProductConfig drives a standalone product engine: the master process of
// Figure 4/5, decoupled from the simulation so product generation can run
// at the compute node, at the public server, or partitioned across
// several secondary nodes (the §2.2 option the paper plans to revisit).
type ProductConfig struct {
	// Products is the (subset of the) catalog this engine computes.
	Products []forecast.ProductSpec
	// Dir is the run directory whose outputs/ the engine watches and
	// whose products/ and process/ it writes.
	Dir string
	// Node executes the product tasks; FS is where inputs are observed
	// and products written.
	Node *cluster.Node
	FS   *vfs.FS
	// InputTotals gives the exact final size of each model-output file
	// (by file name), so the engine knows when a product has consumed
	// everything.
	InputTotals map[string]int64
	Workers     int
	Poll        float64
	// WorkFactor scales product task cost (co-location interference).
	WorkFactor float64
	OnDone     func()

	// Telemetry, when non-nil, receives master-process metrics and
	// product-task spans, nested under the span whose ID is Span.
	Telemetry *telemetry.Telemetry
	Span      int64
}

// ProductEngine incrementally computes data products as model-output
// bytes appear in its filesystem.
type ProductEngine struct {
	cfg       ProductConfig
	eng       *sim.Engine
	sched     sim.Scope // poll timers, labeled "workflow" for the kernel profiler
	products  []*productState
	byName    map[string]*productState
	active    int
	rrCursor  int
	pollTimer sim.Timer
	pollFn    func() // poll, bound once
	finished  bool
	endTime   float64

	// Handles, so a poll builds no path: the outputs/ directory, probed
	// for inputs not written yet, and the process log.
	outputsDir string
	outputs    *vfs.Dir
	master     *vfs.File

	depthPolls int // saturated polls since the last backlog scan

	mPolls      *telemetry.Counter
	mQueueDepth *telemetry.Gauge
	mActive     *telemetry.Gauge
}

// StartProducts launches a product engine. It panics on invalid
// configuration.
func StartProducts(eng *sim.Engine, cfg ProductConfig) *ProductEngine {
	if cfg.Node == nil || cfg.FS == nil {
		panic("workflow: StartProducts needs a node and filesystem")
	}
	if cfg.Dir == "" {
		panic("workflow: StartProducts needs a run directory")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.WorkFactor <= 0 {
		cfg.WorkFactor = 1
	}
	p := &ProductEngine{
		cfg:        cfg,
		eng:        eng,
		sched:      eng.Scope("workflow"),
		byName:     make(map[string]*productState, len(cfg.Products)),
		outputsDir: cfg.Dir + "/outputs",
	}
	p.pollFn = p.poll
	reg := cfg.Telemetry.Registry()
	if reg != nil {
		reg.Describe("workflow_master_polls_total", "Master-process scans for new model output.")
		reg.Describe("workflow_product_tasks_total", "Product tasks dispatched, by product class.")
		reg.Describe("workflow_product_queue_depth", "Products with pending input bytes awaiting a worker (sampled).")
		reg.Describe("workflow_product_active_tasks", "Product tasks currently executing.")
		p.mPolls = reg.Counter("workflow_master_polls_total", nil)
		p.mQueueDepth = reg.Gauge("workflow_product_queue_depth", nil)
		p.mActive = reg.Gauge("workflow_product_active_tasks", nil)
	}
	for _, spec := range cfg.Products {
		st := &productState{spec: spec, taskName: "prod:" + spec.Name}
		st.done = func() { p.taskDone(st) }
		if reg != nil {
			st.mTasks = reg.Counter("workflow_product_tasks_total",
				telemetry.Labels{"class": spec.Class.String()})
		}
		for _, in := range spec.Inputs {
			total, ok := cfg.InputTotals[in]
			if !ok {
				panic(fmt.Sprintf("workflow: product %q reads %q with unknown total", spec.Name, in))
			}
			st.totalIn += float64(total)
			st.inputs = append(st.inputs, productInput{name: in, total: float64(total)})
		}
		p.products = append(p.products, st)
		p.byName[spec.Name] = st
	}
	if len(p.products) == 0 {
		p.finish()
		return p
	}
	p.pollTimer = p.sched.After(cfg.Poll, p.pollFn)
	return p
}

// Finished reports whether every product is complete.
func (p *ProductEngine) Finished() bool { return p.finished }

// FinishedAt returns the completion time (0 if unfinished).
func (p *ProductEngine) FinishedAt() float64 { return p.endTime }

// ProductPath returns a product's data path.
func (p *ProductEngine) ProductPath(name string) string {
	return p.cfg.Dir + "/products/" + name + "/data"
}

// processPath is the master process's log file.
func (p *ProductEngine) processPath() string { return p.cfg.Dir + "/process/master.out" }

// availableFraction returns how much of a product's total input is ready
// to process. A product reading several model-output files consumes each
// file's increments independently (day-1 salinity is processed while
// day-2 is still being simulated), so availability aggregates bytes
// across inputs; dependencies gate the whole product.
func (p *ProductEngine) availableFraction(st *productState) float64 {
	frac := 1.0
	if len(st.inputs) > 0 {
		var avail, total float64
		for i := range st.inputs {
			in := &st.inputs[i]
			if in.file == nil {
				if p.outputs == nil {
					p.outputs = p.cfg.FS.OpenDir(p.outputsDir)
				}
				in.file = p.outputs.Open(in.name)
			}
			t := in.total
			a := float64(in.file.Size())
			if a > t {
				a = t
			}
			avail += a
			total += t
		}
		if total > 0 {
			frac = avail / total
		}
	}
	for _, dep := range st.spec.DependsOn {
		d, ok := p.byName[dep]
		if !ok {
			// Dependency computed by another partition: no local gating.
			continue
		}
		if f := d.consumedFraction(); f < frac {
			frac = f
		}
	}
	return frac
}

func (p *ProductEngine) poll() {
	p.pollTimer = sim.Timer{}
	if p.finished {
		return
	}
	p.mPolls.Inc()
	p.dispatch()
	p.updateQueueDepth()
	if !p.finished {
		p.pollTimer = p.sched.After(p.cfg.Poll, p.pollFn)
	}
}

// queueDepthEvery throttles the backlog scan while workers are
// saturated. The gauge is a sampled instrument, so re-counting input
// availability on every 16th poll (~16 sim-minutes at the default poll
// interval) keeps it fresh enough without re-scanning the filesystem on
// every poll the way dispatch already had to.
const queueDepthEvery = 16

// updateQueueDepth records how many products have input ready but no
// worker — the master process's backlog.
func (p *ProductEngine) updateQueueDepth() {
	if p.mQueueDepth == nil {
		return
	}
	// dispatch just ran: if a worker is still idle, it exhausted a full
	// scan without finding pending input, so the backlog is exactly zero
	// and no availability re-scan is needed.
	if p.active < p.cfg.Workers {
		p.mQueueDepth.Set(0)
		return
	}
	p.depthPolls++
	if p.depthPolls%queueDepthEvery != 0 {
		return
	}
	depth := 0
	for _, st := range p.products {
		if st.active {
			continue
		}
		if p.availableFraction(st)*st.totalIn-st.consumed > 1 {
			depth++
		}
	}
	p.mQueueDepth.Set(float64(depth))
}

func (p *ProductEngine) dispatch() {
	n := len(p.products)
	for p.active < p.cfg.Workers {
		dispatched := false
		for i := 0; i < n; i++ {
			st := p.products[(p.rrCursor+i)%n]
			if st.active {
				continue
			}
			avail := p.availableFraction(st) * st.totalIn
			pending := avail - st.consumed
			if pending <= 1 {
				continue
			}
			p.rrCursor = (p.rrCursor + i + 1) % n
			p.startTask(st, pending)
			dispatched = true
			break
		}
		if !dispatched {
			return
		}
	}
}

func (p *ProductEngine) startTask(st *productState, bytes float64) {
	cpuPerMB, _ := st.spec.Class.Profile()
	work := p.cfg.WorkFactor * cpuPerMB * st.spec.Scale * bytes / 1e6
	st.active = true
	st.dispatched = bytes
	p.active++
	p.mActive.Set(float64(p.active))
	// Per-task span args (e.g. the byte count) are deliberately omitted:
	// a campaign dispatches thousands of product tasks and a map
	// allocation per span is measurable against the telemetry overhead
	// budget. Aggregate byte counts live in the metrics registry instead.
	st.span = 0
	if tel := p.cfg.Telemetry; tel != nil {
		st.mTasks.Inc()
		st.span = tel.Trace().Begin("product", st.taskName, p.cfg.Node.Name(), p.cfg.Span)
	}
	p.cfg.Node.Submit(st.taskName, work, st.done)
}

// taskDone completes the product's in-flight task: it writes the
// product bytes and the process log, then dispatches again.
func (p *ProductEngine) taskDone(st *productState) {
	_, ratio := st.spec.Class.Profile()
	p.cfg.Telemetry.Trace().End(st.span)
	st.active = false
	st.consumed += st.dispatched
	p.active--
	p.mActive.Set(float64(p.active))
	outBytes := int64(math.Round(ratio * st.spec.Scale * st.dispatched))
	if outBytes > 0 {
		st.outWritten += outBytes
		if st.out == nil {
			st.out = create(p.cfg.FS, p.ProductPath(st.spec.Name))
		}
		if err := st.out.Append(outBytes); err != nil {
			panic(fmt.Sprintf("workflow: append product: %v", err))
		}
	}
	if p.master == nil {
		p.master = create(p.cfg.FS, p.processPath())
	}
	if err := p.master.Append(4096); err != nil {
		panic(fmt.Sprintf("workflow: append process log: %v", err))
	}
	st.dispatched = 0
	p.dispatch()
	p.checkDone()
}

// create resolves a size-only file for appending through its handle,
// creating it empty if it does not exist.
func create(fs *vfs.FS, path string) *vfs.File {
	if err := fs.Append(path, 0); err != nil {
		panic(fmt.Sprintf("workflow: create %s: %v", path, err))
	}
	return fs.Open(path)
}

func (p *ProductEngine) checkDone() {
	if p.finished {
		return
	}
	for _, st := range p.products {
		if st.active || st.totalIn-st.consumed > 1 {
			return
		}
	}
	p.finish()
}

func (p *ProductEngine) finish() {
	p.finished = true
	p.endTime = p.eng.Now()
	if p.pollTimer.Active() {
		p.pollTimer.Cancel()
		p.pollTimer = sim.Timer{}
	}
	if p.cfg.OnDone != nil {
		p.cfg.OnDone()
	}
}
