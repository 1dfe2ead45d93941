// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload in a single process for a fixed time and prints, as the last
// line of standard output, one JSON object with the run's correctness
// tally and its metrics:
//
//	go build -o e2e . && ./e2e --workload campaign-observed --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	campaign-observed  the Figure 8 campaign with every observer attached,
//	                   then the end-of-campaign reports
//	fleet-replay       a chained-increment replay on a large plant: kernel,
//	                   ps and usage only
//	planning-session   one operator's closed loop over a harvested history:
//	                   harvest, SQL, estimate, pack, what-if, reschedule
//
// The seed is the only source of inputs: the generator turns it into start
// offsets, run costs, storm timing, history noise, query literals, move
// targets and the failed node, and the program receives only those
// generated inputs. Each iteration repeats the same inputs; the workload
// runs iterations until --seconds have passed and reports medians.
//
// With --trace 0 the metrics are the end-to-end ones, taken with no
// tracing. With --trace 1 untraced and traced iterations alternate; the
// traced ones attach the kernel profiler with exact per-event handler
// timing and time the benchmark's own calls into each layer, and the
// metrics are the per-layer breakdown of the median traced iteration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings one run receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales the inputs: "full" (the benchmark), "tiny" (the
	// self-test), or "bench-sim" (fleet-replay at the 200-node × 2000-run
	// × 96-increment size of the kernel's BENCH_sim figure).
	size string
	// tamper alters one program answer before it is checked, so a test
	// can prove the checks are live. Not reachable from the command line.
	tamper bool
}

// checks tallies output checks and failed requests.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, n := range o.notes {
		if len(c.notes) < 8 {
			c.notes = append(c.notes, n)
		}
	}
}

// iterResult is one iteration of a workload.
type iterResult struct {
	setup    []float64 // set-up samples, seconds
	cpu      float64   // process CPU of the timed part, seconds
	wall     float64   // wall time the workload reports, seconds
	span     float64   // real wall time of the timed part, seconds; wall may count only part of it
	peakHeap float64   // bytes
	runtime  runtimeStats
	steps    []float64 // request latencies, seconds
	digest   uint64    // digest of the simulated outputs
	checks   checks
	layers   *breakdown // traced iterations only
	summary  string     // one human-readable line
}

// breakdown is a traced iteration's per-layer accounting. self holds the
// layer self times, each measured by its own clock reads; what they leave
// of the timed part's real wall time is unattributed. values holds the
// per-layer metrics by name. A nil breakdown runs timed calls untimed,
// so untraced iterations share the traced code path.
type breakdown struct {
	self   map[string]float64
	values map[string]float64
}

func newBreakdown() *breakdown {
	return &breakdown{self: map[string]float64{}, values: map[string]float64{}}
}

// time runs fn and charges its wall time to layer.
func (b *breakdown) time(layer string, fn func()) {
	if b == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	b.self[layer] += since(t0)
}

func (b *breakdown) selfSum() float64 {
	var s float64
	for _, v := range b.self {
		s += v
	}
	return s
}

// workload prepares a run's inputs from the options and returns the
// function that runs one iteration over them.
type workload func(o options) (func(traced bool) (*iterResult, error), error)

var workloads = map[string]workload{
	"campaign-observed": prepareCampaign,
	"fleet-replay":      prepareFleet,
	"planning-session":  preparePlanning,
}

// maxIterLines caps the per-iteration progress lines a run prints.
const maxIterLines = 12

// metric is one named metric of the result line.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints, as BENCHMARK.json
// names them.
var endToEnd = []metric{
	{"cpu_s", "s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
}

// perLayer are the metrics a --trace 1 run prints. A layer a workload
// does not exercise reads 0.
var perLayer = []metric{
	{"sim.events_fired", "count"},
	{"sim.events_cancelled", "count"},
	{"sim.peak_queue_depth", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"ps.handler_s", "s"},
	{"ps.fired", "count"},
	{"ps.cancelled", "count"},
	{"ps.cancel_ratio", "ratio"},
	{"workflow.handler_s", "s"},
	{"workflow.fired", "count"},
	{"vfs.files", "count"},
	{"vfs.size_ns", "ns"},
	{"vfs.walk_ms", "ms"},
	{"factory.handler_s", "s"},
	{"monitor.handler_s", "s"},
	{"monitor.ticks", "count"},
	{"harvest.handler_s", "s"},
	{"harvest.pass_ms", "ms"},
	{"harvest.ingested", "count"},
	{"harvest.watermark_hits", "count"},
	{"harvest.hit_ratio", "ratio"},
	{"logs.parse_us", "us"},
	{"usage.handler_s", "s"},
	{"usage.samples", "count"},
	{"usage.load_samples_ms", "ms"},
	{"spc.observe_s", "s"},
	{"spc.load_report_ms", "ms"},
	{"spc.read_report_ms", "ms"},
	{"forensics.analyze_ms", "ms"},
	{"forensics.load_report_ms", "ms"},
	{"forensics.read_report_ms", "ms"},
	{"forensics.runs", "count"},
	{"serving.handler_s", "s"},
	{"serving.requests", "count"},
	{"serving.renders", "count"},
	{"serving.coalesced", "count"},
	{"serving.hit_rate", "ratio"},
	{"engineprof.load_report_ms", "ms"},
	{"engineprof.read_report_ms", "ms"},
	{"telemetry.spans", "count"},
	{"statsdb.load_spans_ms", "ms"},
	{"statsdb.query_p50_ms", "ms"},
	{"statsdb.query_p99_ms", "ms"},
	{"statsdb.runs_rows", "count"},
	{"core.build_schedule_ms", "ms"},
	{"core.plan_runs_ms", "ms"},
	{"core.move_p50_ms", "ms"},
	{"core.move_p99_ms", "ms"},
	{"core.reschedule_minimal_ms", "ms"},
	{"core.reschedule_reshuffle_ms", "ms"},
	{"core.evaluate_estimates_ms", "ms"},
	{"core.dropped", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_pct", "%"},
	{"sim_deadline_miss_frac", "ratio"},
	{"sim_staleness_p99_s", "s"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: campaign-observed, fleet-replay or planning-session")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the generator derives every input from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measure for this many seconds (the current iteration always completes)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced iterations")
	flag.StringVar(&o.size, "size", "full", "input size: full, tiny (self-test), or bench-sim (fleet-replay at the BENCH_sim size, 200 nodes × 2000 runs × 96 increments; other workloads run full)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		os.Exit(2)
	}
	switch o.size {
	case "full", "tiny", "bench-sim":
	default:
		fmt.Fprintf(os.Stderr, "unknown --size %q (full, tiny, bench-sim)\n", o.size)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, printing human-readable progress to out,
// and returns the result line.
func run(o options, out io.Writer) (*result, error) {
	prepare, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (%s)", o.workload, strings.Join(names, ", "))
	}
	fmt.Fprintf(out, "workload %s seed %d size %s trace %v\n", o.workload, o.seed, o.size, o.trace)
	// The generated inputs stay live for the whole run. They are the
	// benchmark's memory, not the program's, so peak_heap_mb leaves them out.
	runtime.GC()
	heap0 := liveHeap()
	iterate, err := prepare(o)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	inputs := math.Max(0, liveHeap()-heap0)
	fmt.Fprintf(out, "inputs: %.1fMB of generated inputs, left out of peak_heap_mb\n", inputs/(1<<20))
	start := time.Now()
	var all []*iterResult
	var untraced, traced []*iterResult
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		r, err := iterate(tr)
		if err != nil {
			return nil, err
		}
		all = append(all, r)
		if tr {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		kind := "untraced"
		if tr {
			kind = "traced"
		}
		if i == maxIterLines {
			fmt.Fprintln(out, "  ...")
		}
		if i < maxIterLines {
			fmt.Fprintf(out, "  iter %d %-8s cpu %.3fs wall %.3fs setup %.4fs heap %.1fMB digest %016x  %s\n",
				i, kind, r.cpu, r.wall, median(r.setup), (r.peakHeap-inputs)/(1<<20), r.digest, r.summary)
		}
		// At least two iterations, so the determinism check always runs,
		// and one of each kind in a traced run.
		enough := len(all) >= 2 && (!o.trace || len(traced) > 0)
		if enough && since(start) >= o.seconds {
			break
		}
	}

	var tally checks
	for i, r := range all {
		tally.merge(r.checks)
		// Determinism: every iteration of one seed simulates the same
		// outputs, traced or not.
		tally.check(r.digest == all[0].digest, "iteration %d digest %016x differs from iteration 0's %016x", i, r.digest, all[0].digest)
		// A traced iteration's layer self times account for the real wall
		// time of its timed part.
		if r.layers != nil {
			gap := r.span - r.layers.selfSum()
			tally.check(math.Abs(gap) <= 0.05*r.span, "iteration %d: layers sum to %.3fs of %.3fs wall", i, r.layers.selfSum(), r.span)
		}
	}
	for _, n := range tally.notes {
		fmt.Fprintln(out, "  CHECK FAILED:", n)
	}
	failedFrac := float64(tally.failed) / float64(tally.attempted)
	fmt.Fprintf(out, "checks: %d attempted, %d failed (failed_frac %.4g), digest %016x\n",
		tally.attempted, tally.failed, failedFrac, all[0].digest)

	values := map[string]float64{}
	var names []metric
	if !o.trace {
		names = endToEnd
		var cpu, wall, setup, heap, steps []float64
		for _, r := range untraced {
			cpu = append(cpu, r.cpu)
			wall = append(wall, r.wall)
			setup = append(setup, r.setup...)
			heap = append(heap, r.peakHeap)
			steps = append(steps, r.steps...)
		}
		values["cpu_s"] = median(cpu)
		values["wall_s"] = median(wall)
		values["setup_s"] = median(setup)
		values["peak_heap_mb"] = (median(heap) - inputs) / (1 << 20)
		values["request_p50_ms"] = 1000 * quantile(steps, 0.50)
		values["request_p99_ms"] = 1000 * quantile(steps, 0.99)
		fmt.Fprintf(out, "requests: %d samples, %d beyond p99\n", len(steps), beyond(steps, 0.99))
	} else {
		names = perLayer
		// The breakdown of the traced iteration with the median wall time.
		sort.Slice(traced, func(i, j int) bool { return traced[i].wall < traced[j].wall })
		mid := traced[(len(traced)-1)/2]
		var tcpu, ucpu []float64
		for _, r := range traced {
			tcpu = append(tcpu, r.cpu)
		}
		for _, r := range untraced {
			ucpu = append(ucpu, r.cpu)
		}
		b := mid.layers
		for k, v := range b.values {
			values[k] = v
		}
		values["runtime.gc_cpu_s"] = mid.runtime.gcCPU
		values["runtime.alloc_mb"] = mid.runtime.allocBytes / (1 << 20)
		values["runtime.gc_cycles"] = mid.runtime.gcCycles
		values["trace.unattributed_s"] = mid.span - b.selfSum()
		values["trace.overhead_pct"] = 100 * (median(tcpu) - median(ucpu)) / median(ucpu)
		printBreakdown(out, mid, values["trace.overhead_pct"])
	}
	res := &result{
		Correct:   tally.failed == 0,
		Attempted: tally.attempted,
		Failed:    tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range names {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// beyond counts the samples above the q-quantile.
func beyond(xs []float64, q float64) int {
	cut := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

// printBreakdown prints the traced iteration's layer table: every layer
// self time, largest first, then their sum against the timed part's real
// wall time.
func printBreakdown(out io.Writer, r *iterResult, overheadPct float64) {
	b := r.layers
	type row struct {
		layer string
		secs  float64
	}
	var rows []row
	for k, v := range b.self {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].secs != rows[j].secs {
			return rows[i].secs > rows[j].secs
		}
		return rows[i].layer < rows[j].layer
	})
	fmt.Fprintf(out, "\nlayer self times (traced iteration, timed part %.3fs wall):\n", r.span)
	for _, rw := range rows {
		fmt.Fprintf(out, "  %-32s %9.4fs %6.2f%%\n", rw.layer, rw.secs, 100*rw.secs/r.span)
	}
	sum := b.selfSum()
	fmt.Fprintf(out, "  %-32s %9.4fs %6.2f%%\n", "sum of layers", sum, 100*sum/r.span)
	fmt.Fprintf(out, "  %-32s %9.4fs %6.2f%%\n", "unattributed", r.span-sum, 100*(r.span-sum)/r.span)
	fmt.Fprintf(out, "  runtime (overlaps the layers): gc cpu %.3fs, alloc %.1fMB, %g gc cycles\n",
		r.runtime.gcCPU, r.runtime.allocBytes/(1<<20), r.runtime.gcCycles)
	fmt.Fprintf(out, "  tracing overhead: %+.2f%% cpu (median traced vs untraced iteration)\n\n", overheadPct)
}
