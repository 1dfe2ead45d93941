package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/engineprof"
	"repro/internal/sim"
	"repro/internal/usage"
)

const fleetSetups = 3 // set-up samples per iteration

// fleetInputs are the generated inputs of one fleet-replay run: the plant
// size and, per run, its node, launch time and cost.
type fleetInputs struct {
	nodes, incs int
	node        []int
	start, cost []float64
}

// fleetInputsFor derives the replay from the seed. The shape is the
// kernel's BENCH_sim replay — one chained-increment run per node per day,
// launches staggered over the first hour — with seeded launch jitter
// (up to 60 s) and run costs (3000–3011 reference CPU-seconds).
func fleetInputsFor(o options) fleetInputs {
	nodes, runs, incs := 400, 8000, 96
	switch o.size {
	case "tiny":
		nodes, runs, incs = 20, 100, 8
	case "bench-sim":
		nodes, runs, incs = 200, 2000, 96
	}
	rng := rand.New(rand.NewSource(o.seed))
	in := fleetInputs{nodes: nodes, incs: incs}
	days := (runs + nodes - 1) / nodes
	for d := 0; d < days && len(in.node) < runs; d++ {
		for f := 0; f < nodes && len(in.node) < runs; f++ {
			in.node = append(in.node, f)
			in.start = append(in.start, float64(d)*86400+float64(f%8)*450+60*rng.Float64())
			in.cost = append(in.cost, 3000+11*rng.Float64())
		}
	}
	return in
}

// fleet is one replay, set up and ready to run.
type fleet struct {
	eng       *sim.Engine
	prof      *engineprof.Profiler
	samp      *usage.Sampler
	completed int
}

// buildFleet wires the replay as the engineprof bench does: a cluster of
// two-CPU nodes, the usage sampler on a 15-minute interval, and every
// launch through a named scope. prof, when non-nil, is attached with
// exact handler timing.
func buildFleet(in fleetInputs, prof *engineprof.Profiler) *fleet {
	e := sim.NewEngine()
	fl := &fleet{eng: e, prof: prof}
	if prof != nil {
		e.SetProbe(prof)
		e.SetProbeSampling(1)
	}
	cl := cluster.New(e)
	cn := make([]*cluster.Node, in.nodes)
	for i := range cn {
		cn[i] = cl.AddNode(fmt.Sprintf("bn%03d", i), 2, 1.0)
	}
	horizon := math.Ceil(in.start[len(in.start)-1]/86400) * 86400
	fl.samp = usage.NewSampler(cl, usage.Options{Interval: usageEvery})
	fl.samp.Start(horizon)
	sched := e.Scope("replay")
	for i := range in.node {
		node, cost := cn[in.node[i]], in.cost[i]
		name := fmt.Sprintf("bf%03d", in.node[i])
		sched.At(in.start[i], func() {
			var next func(k int)
			next = func(k int) {
				if k >= in.incs {
					fl.completed++
					return
				}
				node.Submit(fmt.Sprintf("%s[%d]", name, k), cost/float64(in.incs), func() { next(k + 1) })
			}
			next(0)
		})
	}
	return fl
}

func prepareFleet(o options) (func(bool) (*iterResult, error), error) {
	in := fleetInputsFor(o)
	var pre checks
	// Untraced iterations run without a probe, so the labeling check runs
	// once here on a small replay of the same shape.
	small := fleetInputsFor(options{seed: o.seed, size: "tiny"})
	probe := buildFleet(small, engineprof.New())
	probe.eng.Run()
	rep := probe.prof.Report()
	ut := rep.Untagged()
	pre.check(ut.Scheduled == 0 && ut.Fired == 0 && ut.Cancelled == 0, "untagged events: %+v", ut)
	pre.check(rep.TotalFired() == probe.eng.EventsFired(), "profiler counted %d fired events, engine %d",
		rep.TotalFired(), probe.eng.EventsFired())
	n := 0
	return func(traced bool) (*iterResult, error) {
		// A tampered run miscounts the second iteration's fired events.
		r, err := fleetIteration(in, traced, o.tamper && n == 1)
		if err == nil && n == 0 {
			r.checks.merge(pre)
		}
		n++
		return r, err
	}, nil
}

// fleetIteration sets the replay up (several times, keeping the last),
// runs it in sim-hour steps, and checks it.
func fleetIteration(in fleetInputs, traced, tamper bool) (*iterResult, error) {
	r := &iterResult{}
	var fl *fleet
	for i := 0; i < fleetSetups; i++ {
		var prof *engineprof.Profiler
		if traced {
			prof = engineprof.New()
		}
		secs, _ := timeSetup(func() error { fl = buildFleet(in, prof); return nil })
		r.setup = append(r.setup, secs)
	}
	var b *breakdown
	if traced {
		b = newBreakdown()
	}
	tp := startTimed()
	steps, runWall := replay(fl.eng, math.Inf(1))
	b.time("usage.finalize", func() { fl.samp.Finalize(fl.eng.Now()) })
	tp.stop(r)
	r.steps = steps

	fired := fl.eng.EventsFired()
	if tamper {
		fired++
	}
	var ck checks
	ck.check(fl.completed == len(in.node), "%d of %d runs completed all increments", fl.completed, len(in.node))
	samples := fl.samp.Samples()
	ck.check(len(samples) > 0, "usage sampler recorded no samples")
	if traced {
		rep := fl.prof.Report()
		ut := rep.Untagged()
		ck.check(ut.Scheduled == 0 && ut.Fired == 0 && ut.Cancelled == 0, "untagged events: %+v", ut)
		ck.check(rep.TotalFired() == fl.eng.EventsFired(), "profiler counted %d fired events, engine %d",
			rep.TotalFired(), fl.eng.EventsFired())
		engineLayers(b, rep, runWall)
		b.values["usage.samples"] = float64(len(samples))
		r.layers = b
	}
	r.checks = ck

	d := newDigest()
	d.count(fired)
	d.count(int64(fl.completed))
	d.num(fl.eng.Now())
	var util float64
	for _, s := range samples {
		util += s.Utilization
	}
	d.count(int64(len(samples)))
	d.num(util)
	r.digest = d.sum()
	r.summary = fmt.Sprintf("events %d (%.0f/cpu-s) runs %d samples %d",
		fl.eng.EventsFired(), float64(fl.eng.EventsFired())/r.cpu, fl.completed, len(samples))
	return r, nil
}
