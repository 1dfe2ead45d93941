// Package dataflow assembles the two data-flow architectures of §4.2 of
// the paper and measures when run data becomes available at the public
// server.
//
// Architecture 1 (Figure 4): the simulation and the product-generating
// master process both execute at the compute node; rsync incrementally
// copies model outputs AND data products to the server.
//
// Architecture 2 (Figure 5): the simulation executes at the compute node
// and rsync copies only the model outputs to the server; the master
// process runs at the server, generating products from the delivered
// copies and exploiting the server's otherwise idle CPU.
package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
	"repro/internal/workflow"
)

// Architecture selects a data-flow architecture.
type Architecture int

// The two architectures evaluated in the paper.
const (
	Architecture1 Architecture = 1
	Architecture2 Architecture = 2
)

// watchdogDeadline bounds every architecture's virtual runtime: a
// dataflow that has not drained after 90 virtual days is wedged, and the
// watchdog panics rather than spinning the event loop forever.
const watchdogDeadline = 90 * 86400.0

// String names the architecture as in the paper.
func (a Architecture) String() string {
	switch a {
	case Architecture1:
		return "Architecture 1 (model and data products at nodes)"
	case Architecture2:
		return "Architecture 2 (data products at server)"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Params configures an architecture experiment. Zero fields take the
// defaults of the paper's §4.2 testbed: single-CPU client and server, a
// 100 Mb/s LAN, rsync every 5 minutes, and the standard run execution
// parameters.
type Params struct {
	Spec *forecast.Spec

	ClientCPUs int
	ServerCPUs int

	Bandwidth     float64 // link bytes/second
	RsyncInterval float64 // seconds between rsync scans

	Workers int

	// Telemetry, when non-nil, receives link/workflow metrics and an
	// experiment span tree (experiment → simulation/product/transfer).
	Telemetry *telemetry.Telemetry
}

// The §4.2 testbed's node speeds: a 2.80 GHz client is the reference
// (1.0) and the 2.60 GHz server runs at 0.93 of it.
const (
	clientSpeed = 1.0
	serverSpeed = 2.60 / 2.80
)

// sampleInterval is the spacing of series samples in seconds.
const sampleInterval = 60.0

// watchedSeries are the run-relative data series sampled, the five
// plotted in Figures 6 and 7. Entries name either model-output files or
// product directories; the special name "process" watches the master
// process's directory.
var watchedSeries = []string{
	"1_salt.63",
	"2_salt.63",
	"isosal_far_surface",
	"isosal_near_surface",
	"process",
}

func (p *Params) fillDefaults() {
	if p.Spec == nil {
		p.Spec = forecast.DataflowForecast()
	}
	if p.ClientCPUs == 0 {
		p.ClientCPUs = 1
	}
	if p.ServerCPUs == 0 {
		p.ServerCPUs = 1
	}
	if p.Bandwidth == 0 {
		p.Bandwidth = 12.5e6
	}
	if p.RsyncInterval == 0 {
		p.RsyncInterval = 300
	}
	if p.Workers == 0 {
		p.Workers = workflow.DefaultWorkers
	}
}

// Series is the fraction of one watched path's final data present at the
// server over time.
type Series struct {
	Name     string
	Times    []float64
	Fraction []float64
}

// Result reports one architecture run.
type Result struct {
	Architecture Architecture
	// EndToEnd is the time until all run data (model outputs, data
	// products, process files) is resident at the server.
	EndToEnd float64
	// SimWalltime is when the simulation itself completed.
	SimWalltime float64
	// RunWalltime is when the product run (sim + all products) completed.
	RunWalltime float64
	// BytesOverLink is the total bytes rsync moved to the server.
	BytesOverLink float64
	// TotalBytes is the total bytes of run data (outputs + products +
	// process files).
	TotalBytes float64
	// Series are the sampled fraction-at-server curves.
	Series []Series
}

// BandwidthSaving returns the fraction of run data NOT moved over the
// link (0 for Architecture 1, ≈ the product share for Architecture 2).
func (r Result) BandwidthSaving() float64 {
	if r.TotalBytes <= 0 {
		return 0
	}
	s := 1 - r.BytesOverLink/r.TotalBytes
	if s < 0 {
		return 0
	}
	return s
}

// Run executes the experiment for the chosen architecture.
func Run(arch Architecture, p Params) Result {
	p.fillDefaults()
	if err := p.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("dataflow: %v", err))
	}

	eng := sim.NewEngine()
	cl := cluster.New(eng)
	client := cl.AddNode("client", p.ClientCPUs, clientSpeed)
	server := cl.AddNode("server", p.ServerCPUs, serverSpeed)
	clientFS := vfs.New(eng.Now)
	serverFS := vfs.New(eng.Now)
	link := netsim.NewLink(eng, "lan", p.Bandwidth)

	tel := p.Telemetry
	tel.SetClock(eng.Now)
	eng.Instrument(tel.Registry())
	link.Instrument(tel)
	var expSpan int64
	if tel != nil {
		expSpan = tel.Trace().Begin("experiment",
			fmt.Sprintf("arch%d:%s", int(arch), p.Spec.Name), "dataflow", 0)
	}

	dir := "/runs/" + p.Spec.Name + "/day1"
	cfg := workflow.Config{
		Spec:       p.Spec,
		Dir:        dir,
		SimNode:    client,
		SimFS:      clientFS,
		Increments: workflow.DefaultIncrements,
		Workers:    p.Workers,
		Poll:       workflow.DefaultPoll,
		Telemetry:  tel,
		Span:       expSpan,
	}
	switch arch {
	case Architecture1:
		cfg.ProductNode = client
		cfg.ProductFS = clientFS
	case Architecture2:
		cfg.ProductNode = server
		cfg.ProductFS = serverFS
	default:
		panic(fmt.Sprintf("dataflow: unknown architecture %d", arch))
	}

	run := workflow.Start(eng, cfg)

	// rsync roots: Architecture 1 ships outputs, products, and the
	// process directory; Architecture 2 ships only the model outputs.
	roots := []string{run.OutputsDir()}
	if arch == Architecture1 {
		roots = append(roots, run.ProductsDir(), run.ProcessDir())
	}
	var lastDelivery float64
	rs := netsim.NewRsync(eng, clientFS, serverFS, link, p.RsyncInterval, roots,
		func(t float64, _ string, _ int64) { lastDelivery = t })
	rs.Start()

	// Sample the watched series at the server.
	watchPaths := resolveWatch(run, watchedSeries)
	samples := make(map[string][]sample, len(watchPaths))
	sched := eng.Scope("dataflow")
	var sampler func()
	samplerDone := false
	sampler = func() {
		for name, path := range watchPaths {
			samples[name] = append(samples[name], sample{eng.Now(), serverFS.Size(path)})
		}
		if !samplerDone {
			sched.After(sampleInterval, sampler)
		}
	}
	sched.After(sampleInterval, sampler)

	// Watchdog: once the run is finished and rsync has delivered
	// everything, stop the periodic agents so the event queue drains.
	var watchdog func()
	watchdog = func() {
		if run.Finished() && rs.Synced() {
			samplerDone = true
			rs.Stop()
			sampler() // final sample at the exact end
			return
		}
		if eng.Now() > watchdogDeadline {
			panic(fmt.Sprintf("dataflow: %v did not complete within %v virtual seconds", arch, watchdogDeadline))
		}
		sched.After(sampleInterval, watchdog)
	}
	sched.After(sampleInterval, watchdog)

	eng.Run()

	if !run.Finished() {
		panic("dataflow: run did not finish (event queue drained early)")
	}

	// Total run data generated: everything at the client plus, for
	// Architecture 2, the products and process files written directly at
	// the server (the server's rsync'd copies are not new data).
	totalBytes := float64(clientFS.TreeSize(dir))
	if arch == Architecture2 {
		totalBytes += float64(serverFS.TreeSize(run.ProductsDir()) + serverFS.TreeSize(run.ProcessDir()))
	}
	res := Result{
		Architecture:  arch,
		SimWalltime:   run.SimFinishedAt() - run.Started(),
		RunWalltime:   run.Walltime(),
		BytesOverLink: link.BytesMoved(),
		TotalBytes:    totalBytes,
	}
	// All data at server: the later of the last rsync delivery and (for
	// Architecture 2) the last product written directly at the server.
	res.EndToEnd = lastDelivery
	if arch == Architecture2 && run.FinishedAt() > res.EndToEnd {
		res.EndToEnd = run.FinishedAt()
	}

	if reg := tel.Registry(); reg != nil {
		al := telemetry.Labels{"arch": fmt.Sprintf("%d", int(arch))}
		reg.Describe("dataflow_bytes_over_link", "Bytes rsync moved to the server, by architecture.")
		reg.Describe("dataflow_total_bytes", "Total run data generated, by architecture.")
		reg.Describe("dataflow_end_to_end_seconds", "Time until all run data is resident at the server, by architecture.")
		reg.Gauge("dataflow_bytes_over_link", al).Set(res.BytesOverLink)
		reg.Gauge("dataflow_total_bytes", al).Set(res.TotalBytes)
		reg.Gauge("dataflow_end_to_end_seconds", al).Set(res.EndToEnd)
	}
	tel.Trace().End(expSpan)

	// Normalize series by their final sizes.
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := samples[name]
		final := ss[len(ss)-1].size
		s := Series{Name: name}
		for _, pt := range ss {
			frac := 0.0
			if final > 0 {
				frac = float64(pt.size) / float64(final)
			}
			s.Times = append(s.Times, pt.t)
			s.Fraction = append(s.Fraction, frac)
		}
		res.Series = append(res.Series, s)
	}
	return res
}

type sample struct {
	t    float64
	size int64
}

// resolveWatch maps watch names to server-filesystem paths.
func resolveWatch(run *workflow.Run, watch []string) map[string]string {
	paths := make(map[string]string, len(watch))
	for _, name := range watch {
		switch {
		case name == "process":
			paths[name] = run.ProcessDir() + "/master.out"
		case isOutput(run, name):
			paths[name] = run.OutputPath(name)
		default:
			paths[name] = run.ProductPath(name)
		}
	}
	return paths
}

func isOutput(run *workflow.Run, name string) bool {
	_, ok := run.Spec().Output(name)
	return ok
}
