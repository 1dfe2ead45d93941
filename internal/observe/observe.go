// Package observe attaches the factory's observers to a campaign in one
// place — the kernel profiler, the continuous harvest, the usage sampler,
// the public serving edge, and the monitor with its SPC charts (§4.1's
// monitor view, §4.3's statistics database and control charts) — closes
// them out into one statistics database, and serves their control-room
// routes. It sits above every observer because none may know the others:
// monitor imports factory, and spc and forensics feed it plain values.
package observe

import (
	"errors"
	"fmt"
	"slices"
	"sort"

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
)

// Set selects the observers to attach, one field per cmd/factory flag.
// Times are sim seconds; a zero leaves that observer off. Monitor attaches
// the control room with its SPC charts.
type Set struct {
	HarvestEvery, UsageEvery float64
	ServingUsers             int
	Monitor, EngineProf      bool
}

// Observed is a campaign with its observers attached; each is nil when
// its Set field left it off. DB holds every report: the harvested runs as
// they land, the rest from Close on. ServingBase is each initial
// forecast's priority, the baseline the edge's demand feedback ranks.
type Observed struct {
	DB          *statsdb.DB
	Prof        *engineprof.Profiler
	Harv        *harvest.Harvester
	Samp        *usage.Sampler
	Edge        *serving.Edge
	ServingBase map[string]int
	Mon         *monitor.Monitor
	SPC         *spc.Observatory

	c          *factory.Campaign
	harvestErr error // what stopped the harvest schedule
}

// Observe attaches the observers set selects to c, before it runs. The
// order is behaviour: events tied at one instant, and run-log hooks, fire
// in attach order.
func Observe(c *factory.Campaign, set Set) (*Observed, error) {
	o := &Observed{DB: statsdb.NewDB(), c: c}
	tel, eng := c.Telemetry(), c.Engine()
	if set.EngineProf {
		o.Prof = engineprof.New()
		eng.SetProbe(o.Prof)
	}
	opts := monitor.DefaultOptions()
	if set.HarvestEvery > 0 {
		var err error
		o.Harv, err = harvest.New(c.FS(), o.DB, harvest.NewVFSJournal(c.FS(), "/harvest/journal.jsonl"),
			harvest.Options{Telemetry: tel, Clock: eng.Now})
		if err != nil {
			return nil, err
		}
		harvest.Schedule(eng, o.Harv, set.HarvestEvery, c.Horizon(),
			func(err error) { o.harvestErr = fmt.Errorf("harvest: %w", err) })
		// Page when the harvest heartbeat goes quiet for two intervals,
		// and when bad logs arrive faster than one per sim-hour.
		opts.Staleness = []monitor.StalenessRule{{Name: "harvest_stale", Metric: harvest.MetricLastPassTime,
			MaxAge: 2 * set.HarvestEvery, Severity: monitor.SevCritical}}
		opts.Rates = []monitor.RateRule{{Name: "quarantine_spike", Metric: harvest.MetricQuarantinedTotal,
			PerHourAbove: 1, Severity: monitor.SevWarning}}
	}
	if set.UsageEvery > 0 {
		o.Samp = usage.NewSampler(c.Cluster(), usage.Options{Interval: set.UsageEvery, Telemetry: tel})
		o.Samp.Start(c.Horizon())
		opts.Drift = monitor.DriftRule{RelAbove: 0.25, MinSecs: 600, Severity: monitor.SevWarning}
	}
	// The public edge runs on a node of its own. Each completed run
	// publishes its forecast's products, invalidating the previous
	// cycle's cached copies, while the crowd hits the edge all campaign.
	if set.ServingUsers > 0 {
		pub := c.Cluster().AddNode("public-server", 2, 1)
		o.ServingBase = make(map[string]int)
		for _, name := range c.Forecasts() {
			o.ServingBase[name] = c.Spec(name).Priority
		}
		var err error
		o.Edge, err = serving.New(serving.Config{
			Engine: eng, Server: pub, Products: serving.DefaultProducts(o.ServingBase), Telemetry: tel.Registry(),
		})
		if err != nil {
			return nil, err
		}
		c.AddRunLogHook(func(r *logs.RunRecord) {
			if r.End > 0 {
				o.Edge.PublishForecast(r.Forecast, r.Day-c.StartDay(), r.End)
			}
		})
		gen, err := serving.NewGenerator(o.Edge, serving.LoadConfig{Users: set.ServingUsers})
		if err != nil {
			return nil, err
		}
		gen.Start(c.Horizon())
	}
	if !set.Monitor {
		return o, nil
	}

	if o.Samp != nil {
		// Sustained saturation on every node the campaign has or will add
		// (a node not up yet has no series, so its rule stays silent),
		// and idle-while-saturated imbalance.
		var nodes []string
		for _, n := range c.Cluster().Nodes() {
			nodes = append(nodes, n.Name())
		}
		for _, n := range c.AddedNodes() {
			if !slices.Contains(nodes, n) {
				nodes = append(nodes, n)
			}
		}
		opts.Thresholds = monitor.UsageRules(nodes, 2*3600, monitor.SevWarning)
	}
	opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
	opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
	o.Mon = monitor.New(opts, tel.Registry())
	o.Mon.Attach(c)
	// Every completed run streams through the control charts the moment
	// its log is written, so the charts and their alerts track the replay
	// live. Drift and node shares need the whole ledger: Close adds them.
	o.SPC = spc.New(spc.DefaultParams())
	AlertOn(o.SPC, o.Mon)
	c.AddRunLogHook(func(r *logs.RunRecord) {
		if r.End <= 0 || r.Walltime <= 0 {
			return
		}
		deadline := 0.0
		if s := c.Spec(r.Forecast); s != nil && s.Deadline > 0 {
			deadline = float64(r.Day-c.StartDay())*factory.SecondsPerDay + s.Deadline
		}
		o.SPC.ObserveRun(spc.RunObs{Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Walltime: r.Walltime, End: r.End, Deadline: deadline})
	})
	return o, nil
}

// Close closes the observers out once the campaign has finished: a last
// harvest pass for logs written since the scheduled ones, the monitor's
// and sampler's final state, the SPC drift and node-share series, then
// every report into DB. It returns every error, the one that stopped the
// harvest schedule included.
func (o *Observed) Close() error {
	errs := []error{o.harvestErr}
	wrap := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	now := o.c.Engine().Now()
	if o.Harv != nil {
		_, err := o.Harv.Pass()
		wrap("harvest", err)
	}
	if o.Mon != nil {
		o.Mon.Finalize(now)
	}
	if o.Samp != nil {
		o.Samp.Finalize(now)
	}
	if o.SPC != nil {
		// Plan-vs-actual drift from the control room's ledger, in the
		// order the runs ended.
		runs := o.Mon.Status().Runs
		sort.Slice(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
		for _, r := range runs {
			if r.End != 0 && r.LaunchETA != 0 {
				o.SPC.ObserveDrift(r.Forecast, r.Day, r.End, r.End-r.LaunchETA)
			}
		}
		if o.Samp != nil {
			NodeShares(o.SPC, o.c, o.Samp)
		}
		o.SPC.Finalize()
		wrap("spc", spc.LoadReport(o.DB, o.SPC.Report()))
	}
	if o.Samp != nil {
		_, err := usage.LoadSamples(o.DB, o.Samp.Samples())
		wrap("usage", err)
	}
	if o.Edge != nil {
		wrap("serving", serving.LoadReport(o.DB, o.Edge.Stats()))
	}
	if o.Prof != nil {
		wrap("engineprof", engineprof.LoadReport(o.DB, o.Prof.Report()))
	}
	return errors.Join(errs...)
}

// Server builds the control room, with a route for every observer
// attached (nil when the monitor is off). A route reads only what its
// observer recorded under its own lock, so it may answer while the
// simulation runs.
func (o *Observed) Server() *monitor.Server {
	if o.Mon == nil {
		return nil
	}
	tel := o.c.Telemetry()
	srv := monitor.NewServer(o.Mon, tel.Registry())
	if o.Harv != nil {
		srv.Attach("harvest", func() any { return o.Harv.Status() })
	}
	if o.Samp != nil {
		srv.Attach("utilization", func() any { return o.Samp.Status() })
		// Each request analyzes the trace so far: in-flight runs show
		// their lateness as of now.
		srv.Attach("forensics", func() any {
			rep, err := Forensics(o.Mon, tel.Trace().Spans(), o.Samp)
			if err != nil {
				return map[string]string{"error": err.Error()}
			}
			return rep
		})
	}
	srv.Attach("spc", func() any { return o.SPC.Report() })
	if o.Prof != nil {
		srv.Attach("engine", func() any { return o.Prof.Report() })
	}
	if o.Edge != nil {
		srv.Attach("serving", func() any { return o.Edge.Stats() })
	}
	return srv
}

// Forensics splits each run's lateness in spans into its blame components,
// against the plan the control room watched: the planned launch, the
// launch-time completion prediction (the current one when there was
// none), and the SLO deadline. Runs the monitor never saw launch
// (dropped) get a zero-length plan window and are analyzed as unplanned.
func Forensics(mon *monitor.Monitor, spans []telemetry.Span, timeline forensics.ShareSource) (*forensics.Report, error) {
	var plan []forensics.PlanEntry
	for _, r := range mon.Status().Runs {
		end := r.LaunchETA
		if end == 0 {
			end = r.ETA
		}
		plan = append(plan, forensics.PlanEntry{Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Start: r.PlannedStart, End: end, Deadline: r.Deadline})
	}
	return forensics.Analyze(forensics.Input{Spans: spans, Plan: plan, Timeline: timeline})
}

// AlertOn relays obs's verdicts to mon's out_of_control and changepoint
// rules as they happen.
func AlertOn(obs *spc.Observatory, mon *monitor.Monitor) {
	obs.OnEvent(func(e spc.Event) {
		if cp := e.Changepoint; cp != nil {
			mon.ObserveChangepoint(e.Kind, e.Subject, cp.Day, cp.DetectedDay, cp.Cause, cp.Before, cp.After)
		}
		mon.ObserveControl(e.Kind, e.Subject, e.Point.Day, e.SeriesOut, e.Point.Value, e.Point.Center, e.Point.Rules.Names())
	})
}

// NodeShares feeds each node's daily mean per-job share, from samp's
// timeline, into obs's charts.
func NodeShares(obs *spc.Observatory, c *factory.Campaign, samp *usage.Sampler) {
	for day := c.StartDay(); day < c.StartDay()+c.Days(); day++ {
		d0 := float64(day-c.StartDay()) * factory.SecondsPerDay
		d1 := d0 + factory.SecondsPerDay
		for _, n := range c.Cluster().Nodes() {
			obs.ObserveNodeShare(n.Name(), day, d1, samp.MeanShareOver(n.Name(), d0, d1))
		}
	}
}
