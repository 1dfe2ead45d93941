package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/forensics"
	"repro/internal/harvest"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/usage"
	"repro/internal/vfs"
)

// Observer settings, as `factory -harvest-interval 6 -usage-interval 15
// -serving-users N -engineprof -monitor-addr ...` would wire them.
const (
	harvestEvery   = 6 * 3600 // sim seconds
	usageEvery     = 15 * 60  // sim seconds
	campaignSetups = 9        // set-up samples per iteration
	// servingUsers is the public crowd: the 1.2M users of the serving
	// package's BENCH_serving storm scenario (TestEmitBenchReport).
	servingUsers = 1_200_000
)

// campaignInputs are the generated inputs of one campaign-observed run.
type campaignInputs struct {
	cfg      factory.Config
	users    int
	storm    serving.Storm
	loadSeed int64
}

// campaignInputsFor derives the campaign from the seed: the Figure 8
// scenario with jittered start offsets (±30 min) and run costs (±3% on
// each forecast's code cost factor), and one flash crowd on Tillamook's
// products during the day-50 hump.
func campaignInputsFor(o options) campaignInputs {
	rng := rand.New(rand.NewSource(o.seed))
	cfg := factory.Figure8Scenario()
	stormDay := 49.0 // campaign day index of day-of-year 50
	users := servingUsers
	if o.size == "tiny" {
		cfg.Days = 8
		var kept []factory.Event
		for _, e := range cfg.Events {
			if e.EventDay() < cfg.StartDay+cfg.Days {
				kept = append(kept, e)
			}
		}
		cfg.Events = kept
		stormDay = 4
		users = 20000
	}
	jitter := func(s *factory.Assignment) {
		s.Spec.StartOffset = math.Max(0, s.Spec.StartOffset+(2*rng.Float64()-1)*1800)
		s.Spec.Code.CostFactor *= 0.97 + 0.06*rng.Float64()
	}
	for i := range cfg.Forecasts {
		jitter(&cfg.Forecasts[i])
	}
	for _, e := range cfg.Events {
		if add, ok := e.(factory.AddForecast); ok {
			jitter(&factory.Assignment{Spec: add.Spec})
		}
	}
	storm := serving.Storm{
		Start:      (stormDay + 3*rng.Float64()) * factory.SecondsPerDay,
		Duration:   (2 + 4*rng.Float64()) * 3600,
		Multiplier: 4 + 6*rng.Float64(),
		Forecast:   "forecast-tillamook",
	}
	return campaignInputs{cfg: cfg, users: users, storm: storm, loadSeed: rng.Int63() + 1}
}

// observed is a campaign with every observer cmd/factory can attach.
type observed struct {
	c      *factory.Campaign
	tel    *telemetry.Telemetry
	db     *statsdb.DB
	kprof  *engineprof.Profiler
	harv   *harvest.Harvester
	samp   *usage.Sampler
	edge   *serving.Edge
	gen    *serving.Generator
	mon    *monitor.Monitor
	spcObs *spc.Observatory

	launches   int     // provisional "running" logs written
	observeSec float64 // wall time in the SPC run-log hook (traced only)
	harvestErr error
}

// buildObserved wires the campaign the way cmd/factory does with every
// observer flag on. traced switches the kernel profiler to exact
// per-event handler timing and times the SPC run-log hook.
func buildObserved(in campaignInputs, traced bool) (*observed, error) {
	cfg := in.cfg
	o := &observed{tel: telemetry.New(), db: statsdb.NewDB()}
	cfg.Telemetry = o.tel
	c, err := factory.New(cfg)
	if err != nil {
		return nil, err
	}
	o.c = c
	eng := c.Engine()
	o.kprof = engineprof.New()
	eng.SetProbe(o.kprof)
	if traced {
		eng.SetProbeSampling(1)
	}

	o.harv, err = harvest.New(c.FS(), o.db,
		harvest.NewVFSJournal(c.FS(), "/harvest/journal.jsonl"),
		harvest.Options{Telemetry: o.tel, Clock: eng.Now})
	if err != nil {
		return nil, err
	}
	harvest.Schedule(eng, o.harv, harvestEvery, c.Horizon(), func(err error) { o.harvestErr = err })

	o.samp = usage.NewSampler(c.Cluster(), usage.Options{Interval: usageEvery, Telemetry: o.tel})
	o.samp.Start(c.Horizon())

	pub := c.Cluster().AddNode("public-server", 2, 1)
	base := make(map[string]int, len(cfg.Forecasts))
	for _, a := range cfg.Forecasts {
		base[a.Spec.Name] = a.Spec.Priority
	}
	o.edge, err = serving.New(serving.Config{
		Engine: eng, Server: pub, Products: serving.DefaultProducts(base), Telemetry: o.tel.Registry(),
	})
	if err != nil {
		return nil, err
	}
	c.AddRunLogHook(func(r *logs.RunRecord) {
		if r.Status == logs.StatusRunning {
			o.launches++
		}
		if r.End > 0 {
			o.edge.PublishForecast(r.Forecast, r.Day-c.StartDay(), r.End)
		}
	})
	o.gen, err = serving.NewGenerator(o.edge, serving.LoadConfig{
		Users: in.users, Storms: []serving.Storm{in.storm}, Seed: in.loadSeed,
	})
	if err != nil {
		return nil, err
	}
	o.gen.Start(c.Horizon())

	opts := monitor.DefaultOptions()
	opts.Staleness = []monitor.StalenessRule{{
		Name: "harvest_stale", Metric: harvest.MetricLastPassTime,
		MaxAge: 2 * harvestEvery, Severity: monitor.SevCritical,
	}}
	opts.Rates = []monitor.RateRule{{
		Name: "quarantine_spike", Metric: harvest.MetricQuarantinedTotal,
		PerHourAbove: 1, Severity: monitor.SevWarning,
	}}
	var nodeNames []string
	for _, n := range c.Cluster().Nodes() {
		nodeNames = append(nodeNames, n.Name())
	}
	opts.Thresholds = append(opts.Thresholds, monitor.UsageRules(nodeNames, 2*3600, monitor.SevWarning)...)
	opts.Drift = monitor.DriftRule{RelAbove: 0.25, MinSecs: 600, Severity: monitor.SevWarning}
	opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
	opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
	o.mon = monitor.New(opts, o.tel.Registry())
	o.mon.Attach(c)

	o.spcObs = spc.New(spc.DefaultParams())
	o.spcObs.OnEvent(func(e spc.Event) {
		if cp := e.Changepoint; cp != nil {
			o.mon.ObserveChangepoint(e.Kind, e.Subject, cp.Day, cp.DetectedDay, cp.Cause, cp.Before, cp.After)
		}
		o.mon.ObserveControl(e.Kind, e.Subject, e.Point.Day, e.SeriesOut, e.Point.Value, e.Point.Center, e.Point.Rules.Names())
	})
	c.AddRunLogHook(func(r *logs.RunRecord) {
		if r.End <= 0 || r.Walltime <= 0 {
			return
		}
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		deadline := 0.0
		if s := c.Spec(r.Forecast); s != nil && s.Deadline > 0 {
			deadline = float64(r.Day-c.StartDay())*factory.SecondsPerDay + s.Deadline
		}
		o.spcObs.ObserveRun(spc.RunObs{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Walltime: r.Walltime, End: r.End, Deadline: deadline,
		})
		if traced {
			o.observeSec += since(t0)
		}
	})
	c.Prepare()
	return o, nil
}

func prepareCampaign(o options) (func(bool) (*iterResult, error), error) {
	in := campaignInputsFor(o)
	return func(traced bool) (*iterResult, error) { return campaignIteration(o, in, traced) }, nil
}

// campaignIteration sets the campaign up (several times, keeping the
// last), replays it in sim-hour steps, runs the end-of-campaign work
// cmd/factory does, and checks the outputs.
func campaignIteration(opt options, in campaignInputs, traced bool) (*iterResult, error) {
	r := &iterResult{}
	var o *observed
	for i := 0; i < campaignSetups; i++ {
		// Each sample builds from a fresh copy of the generated inputs:
		// factory.New clones the specs, so the inputs stay untouched.
		secs, err := timeSetup(func() (err error) { o, err = buildObserved(in, traced); return err })
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, secs)
	}
	var b *breakdown
	if traced {
		b = newBreakdown()
	}
	c, eng := o.c, o.c.Engine()
	var ck checks
	fail := func(what string, err error) { ck.check(err == nil, "%s: %v", what, err) }

	tp := startTimed()
	steps, runWall := replay(eng, c.Horizon())
	var (
		results  []factory.RunResult
		spcRep   *spc.Report
		spcBack  *spc.Report
		records  []*logs.RunRecord
		samples  []usage.Sample
		usageTab *statsdb.Table
		st       serving.Stats
		stBack   serving.Stats
		kRep     *engineprof.Report
		kBack    *engineprof.Report
		blame    *forensics.Report
		blameBak *forensics.Report
		spans    []telemetry.Span
		spanTab  *statsdb.Table
		slo      monitor.SLOReport
		err      error
	)
	b.time("factory.finish", func() { results = c.Finish() })
	// One closing pass picks up logs written after the last scheduled one.
	b.time("harvest.pass", func() { _, err = o.harv.Pass() })
	fail("closing harvest pass", err)
	b.time("monitor.finalize", func() { o.mon.Finalize(eng.Now()) })
	b.time("usage.finalize", func() { o.samp.Finalize(eng.Now()) })
	b.time("spc.finalize", func() {
		runs := o.mon.Status().Runs
		sort.Slice(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
		for _, r := range runs {
			if r.End == 0 || r.LaunchETA == 0 {
				continue
			}
			o.spcObs.ObserveDrift(r.Forecast, r.Day, r.End, r.End-r.LaunchETA)
		}
		for day := c.StartDay(); day < c.StartDay()+c.Days(); day++ {
			d0 := float64(day-c.StartDay()) * factory.SecondsPerDay
			d1 := d0 + factory.SecondsPerDay
			for _, n := range c.Cluster().Nodes() {
				o.spcObs.ObserveNodeShare(n.Name(), day, d1, o.samp.MeanShareOver(n.Name(), d0, d1))
			}
		}
		o.spcObs.Finalize()
		spcRep = o.spcObs.Report()
	})
	b.time("spc.load_report", func() { err = spc.LoadReport(o.db, spcRep) })
	fail("spc.LoadReport", err)
	b.time("spc.read_report", func() { spcBack, err = spc.ReadReport(o.db) })
	fail("spc.ReadReport", err)
	b.time("logs.crawl", func() { records, err = logs.Crawl(c.FS(), "/runs") })
	fail("logs.Crawl", err)
	b.time("usage.load_samples", func() {
		samples = o.samp.Samples()
		usageTab, err = usage.LoadSamples(o.db, samples)
	})
	fail("usage.LoadSamples", err)
	b.time("serving.load_report", func() {
		st = o.edge.Stats()
		err = serving.LoadReport(o.db, st)
	})
	fail("serving.LoadReport", err)
	b.time("serving.read_report", func() { stBack, err = serving.ReadReport(o.db) })
	fail("serving.ReadReport", err)
	b.time("engineprof.load_report", func() {
		kRep = o.kprof.Report()
		err = engineprof.LoadReport(o.db, kRep)
	})
	fail("engineprof.LoadReport", err)
	b.time("engineprof.read_report", func() { kBack, err = engineprof.ReadReport(o.db) })
	fail("engineprof.ReadReport", err)
	b.time("forensics.analyze", func() { blame, err = forensicsReport(o) })
	fail("forensics.Analyze", err)
	if blame != nil {
		b.time("forensics.load_report", func() { err = forensics.LoadReport(o.db, blame) })
		fail("forensics.LoadReport", err)
		b.time("forensics.read_report", func() { blameBak, err = forensics.ReadReport(o.db) })
		fail("forensics.ReadReport", err)
	}
	b.time("statsdb.load_spans", func() {
		spans = o.tel.Trace().Spans()
		spanTab, err = statsdb.LoadSpans(o.db, spans)
	})
	fail("statsdb.LoadSpans", err)
	b.time("monitor.report", func() { slo = o.mon.Report() })
	tp.stop(r)
	r.steps = steps

	if opt.tamper && st.Requests > 0 {
		stBack.Requests++ // a serving row that no longer matches what was loaded
	}

	// Kernel profiler agrees with the engine, and every event is labeled.
	ck.check(kRep.TotalFired() == eng.EventsFired(), "profiler counted %d fired events, engine %d", kRep.TotalFired(), eng.EventsFired())
	ut := kRep.Untagged()
	ck.check(ut.Scheduled == 0 && ut.Fired == 0 && ut.Cancelled == 0, "untagged events: %+v", ut)
	// Every launched run finished or is reported unfinished.
	ck.check(o.launches == len(results), "%d launches but %d run results", o.launches, len(results))
	unfinished := 0
	for _, res := range results {
		switch {
		case res.Finished:
			ck.check(!math.IsNaN(res.End) && res.End >= res.Start && res.Walltime > 0,
				"finished run %s/%d has end %v walltime %v", res.Forecast, res.Day, res.End, res.Walltime)
		case res.Dropped:
		default:
			unfinished++
			ck.check(math.IsNaN(res.End), "unfinished run %s/%d not reported unfinished", res.Forecast, res.Day)
		}
	}
	// The harvest kept up with the tree: one row per run log, nothing
	// quarantined, no scheduled pass failed.
	fail("scheduled harvest pass", o.harvestErr)
	hs := o.harv.Status()
	runsRows := 0
	if t := o.db.Table(statsdb.RunsTableName); t != nil {
		runsRows = t.Len()
	}
	ck.check(runsRows == len(records), "runs table has %d rows, run tree %d logs", runsRows, len(records))
	ck.check(hs.Totals.Quarantined == 0, "%d logs quarantined", hs.Totals.Quarantined)
	// Forensics: each run's blame components sum to its lateness.
	if blame != nil {
		for _, rb := range blame.Runs {
			ck.check(math.Abs(rb.BlameSum()-rb.Lateness) <= 1e-6,
				"run %s/%d blame sums to %v, lateness %v", rb.Forecast, rb.Day, rb.BlameSum(), rb.Lateness)
		}
		if blameBak != nil {
			ck.check(len(blameBak.Runs) == len(blame.Runs) && len(blameBak.Days) == len(blame.Days),
				"forensics read back %d runs / %d days, loaded %d / %d",
				len(blameBak.Runs), len(blameBak.Days), len(blame.Runs), len(blame.Days))
		}
	}
	// Each observatory reads back the rows it loaded.
	if spcRep != nil && spcBack != nil {
		ck.check(len(spcBack.Series) == len(spcRep.Series) && spcPoints(spcBack) == spcPoints(spcRep),
			"spc read back %d series / %d points, loaded %d / %d",
			len(spcBack.Series), spcPoints(spcBack), len(spcRep.Series), spcPoints(spcRep))
	}
	if kBack != nil {
		ck.check(len(kBack.Labels) == len(kRep.Labels) && kBack.TotalFired() == kRep.TotalFired(),
			"engineprof read back %d labels / %d fired, loaded %d / %d",
			len(kBack.Labels), kBack.TotalFired(), len(kRep.Labels), kRep.TotalFired())
	}
	ck.check(stBack.Requests == st.Requests && stBack.Hits == st.Hits && len(stBack.Products) == len(st.Products),
		"serving read back %d requests / %d products, loaded %d / %d",
		stBack.Requests, len(stBack.Products), st.Requests, len(st.Products))
	if usageTab != nil {
		ck.check(usageTab.Len() == len(samples), "node_usage has %d rows, %d samples loaded", usageTab.Len(), len(samples))
	}
	if spanTab != nil {
		ck.check(spanTab.Len() == len(spans), "spans table has %d rows, %d spans loaded", spanTab.Len(), len(spans))
	}
	// Serving outcomes add up to the requests the crowd sent.
	var prodReq int64
	for _, p := range st.Products {
		prodReq += p.Requests
	}
	ck.check(st.Hits+st.Misses == st.Requests, "hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	ck.check(st.Coalesced+st.ServedStale+st.Shed <= st.Misses, "miss outcomes %d exceed misses %d",
		st.Coalesced+st.ServedStale+st.Shed, st.Misses)
	ck.check(prodReq == st.Requests, "per-product requests %d != requests %d", prodReq, st.Requests)
	ck.check(o.gen.Total() == st.Requests+st.Unknown, "crowd sent %d, edge counted %d", o.gen.Total(), st.Requests+st.Unknown)
	r.checks = ck

	d := newDigest()
	for _, res := range results {
		d.str(res.Forecast)
		d.count(int64(res.Day))
		d.str(res.Node)
		d.num(res.Start)
		d.num(res.End)
	}
	tot := slo.Total
	for _, n := range []int{tot.Runs, tot.OnTime, tot.Late, tot.Dropped} {
		d.count(int64(n))
	}
	for _, n := range []int64{st.Requests, st.Hits, st.Misses, st.Coalesced, st.Renders, st.Shed, st.ServedStale} {
		d.count(n)
	}
	d.num(st.StalenessP50)
	d.num(st.StalenessP99)
	d.count(eng.EventsFired())
	r.digest = d.sum()

	missFrac := 0.0
	if done := tot.OnTime + tot.Late; done > 0 {
		missFrac = float64(tot.Late) / float64(done)
	}
	r.summary = fmt.Sprintf("events %d runs %d (unfinished %d) late %d/%d staleness p99 %.0fs",
		eng.EventsFired(), len(results), unfinished, tot.Late, tot.OnTime+tot.Late, st.StalenessP99)

	if b != nil {
		engineLayers(b, kRep, runWall)
		v := b.values
		v["sim_deadline_miss_frac"] = missFrac
		v["sim_staleness_p99_s"] = st.StalenessP99
		v["spc.observe_s"] = o.observeSec
		v["spc.load_report_ms"] = 1000 * b.self["spc.load_report"]
		v["spc.read_report_ms"] = 1000 * b.self["spc.read_report"]
		v["usage.samples"] = float64(len(samples))
		v["usage.load_samples_ms"] = 1000 * b.self["usage.load_samples"]
		v["serving.requests"] = float64(st.Requests)
		v["serving.renders"] = float64(st.Renders)
		v["serving.coalesced"] = float64(st.Coalesced)
		v["serving.hit_rate"] = st.HitRate
		v["engineprof.load_report_ms"] = 1000 * b.self["engineprof.load_report"]
		v["engineprof.read_report_ms"] = 1000 * b.self["engineprof.read_report"]
		v["forensics.analyze_ms"] = 1000 * b.self["forensics.analyze"]
		v["forensics.load_report_ms"] = 1000 * b.self["forensics.load_report"]
		v["forensics.read_report_ms"] = 1000 * b.self["forensics.read_report"]
		if blame != nil {
			v["forensics.runs"] = float64(len(blame.Runs))
		}
		v["telemetry.spans"] = float64(len(spans))
		v["statsdb.load_spans_ms"] = 1000 * b.self["statsdb.load_spans"]
		v["statsdb.runs_rows"] = float64(runsRows)
		harvestHandler := v["harvest.handler_s"]
		if hs.Passes > 0 {
			v["harvest.pass_ms"] = 1000 * (harvestHandler + b.self["harvest.pass"]) / float64(hs.Passes)
		}
		v["harvest.ingested"] = float64(hs.Totals.Ingested)
		v["harvest.watermark_hits"] = float64(hs.Totals.WatermarkHits)
		if hs.Totals.Scanned > 0 {
			v["harvest.hit_ratio"] = float64(hs.Totals.WatermarkHits) / float64(hs.Totals.Scanned)
		}
		probeTree(b, c.FS())
		r.layers = b
	}
	return r, nil
}

// spcPoints counts the control points across a report's series.
func spcPoints(rep *spc.Report) int {
	n := 0
	for _, s := range rep.Series {
		n += len(s.Points)
	}
	return n
}

// forensicsReport analyzes the campaign's trace against the plan the
// control room watched, as cmd/factory's blame panel does: the launch
// rule for the planned start, the launch-time prediction for the planned
// end, the SLO deadline.
func forensicsReport(o *observed) (*forensics.Report, error) {
	var plan []forensics.PlanEntry
	for _, r := range o.mon.Status().Runs {
		start := r.Start
		if s := o.c.Spec(r.Forecast); s != nil {
			start = float64(r.Day-o.c.StartDay())*factory.SecondsPerDay + s.StartOffset
		}
		end := r.LaunchETA
		if end == 0 {
			end = r.ETA
		}
		plan = append(plan, forensics.PlanEntry{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Start: start, End: end, Deadline: r.Deadline,
		})
	}
	return forensics.Analyze(forensics.Input{Spans: o.tel.Trace().Spans(), Plan: plan, Timeline: o.samp})
}

// probeTree measures the file tree a workload left behind, outside the
// timed part: one full walk, FS.Size over every file, and logs.Parse over
// every run log body.
func probeTree(b *breakdown, fs *vfs.FS) {
	var files []string
	t0 := time.Now()
	err := fs.Walk("/", func(info vfs.FileInfo) error {
		if !info.IsDir {
			files = append(files, info.Path)
		}
		return nil
	})
	walk := since(t0)
	if err != nil {
		return
	}
	v := b.values
	v["vfs.files"] = float64(len(files))
	v["vfs.walk_ms"] = 1000 * walk
	t0 = time.Now()
	for _, p := range files {
		sizeSink += fs.Size(p)
	}
	if len(files) > 0 {
		v["vfs.size_ns"] = since(t0) * 1e9 / float64(len(files))
	}
	var bodies []string
	for _, p := range files {
		if len(p) >= 8 && p[len(p)-8:] == "/run.log" {
			if body, err := fs.ReadFile(p); err == nil {
				bodies = append(bodies, body)
			}
		}
	}
	t0 = time.Now()
	for _, body := range bodies {
		_, _ = logs.Parse(body) // every body was harvested cleanly; timing only
	}
	if len(bodies) > 0 {
		v["logs.parse_us"] = since(t0) * 1e6 / float64(len(bodies))
	}
}

// sizeSink keeps the FS.Size probe's results live.
var sizeSink int64
