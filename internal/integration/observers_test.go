package integration

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/engineprof"
	"repro/internal/factory"
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

// growthCampaign is the growth scenario cut to its first 23 days, the way
// factory -days cuts it: long enough for the day-22 node additions.
func growthCampaign(t *testing.T, tel *telemetry.Telemetry) *factory.Campaign {
	t.Helper()
	cfg := factory.GrowthScenario()
	cfg.Days = 23
	var kept []factory.Event
	for _, e := range cfg.Events {
		if e.EventDay() < cfg.StartDay+cfg.Days {
			kept = append(kept, e)
		}
	}
	cfg.Events = kept
	cfg.Telemetry = tel
	c, err := factory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// attachObservers wires every observer cmd/factory can attach, as its
// flags do: telemetry (already in the campaign), the kernel profiler, the
// harvest schedule, the usage sampler, the serving edge on its own node
// with a 20k-user crowd, and the monitor fed by the SPC charts.
func attachObservers(t *testing.T, c *factory.Campaign) {
	t.Helper()
	tel, eng := c.Telemetry(), c.Engine()
	eng.SetProbe(engineprof.New())

	harv, err := harvest.New(c.FS(), statsdb.NewDB(),
		harvest.NewVFSJournal(c.FS(), "/harvest/journal.jsonl"),
		harvest.Options{Telemetry: tel, Clock: eng.Now})
	if err != nil {
		t.Fatal(err)
	}
	harvest.Schedule(eng, harv, 6*3600, c.Horizon(), func(err error) { t.Errorf("harvest: %v", err) })

	samp := usage.NewSampler(c.Cluster(), usage.Options{Interval: 900, Telemetry: tel})
	samp.Start(c.Horizon())

	base := make(map[string]int)
	for _, name := range c.Forecasts() {
		base[name] = c.Spec(name).Priority
	}
	edge, err := serving.New(serving.Config{
		Engine: eng, Server: c.Cluster().AddNode("public-server", 2, 1),
		Products: serving.DefaultProducts(base), Telemetry: tel.Registry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRunLogHook(func(r *logs.RunRecord) {
		if r.End > 0 {
			edge.PublishForecast(r.Forecast, r.Day-c.StartDay(), r.End)
		}
	})
	gen, err := serving.NewGenerator(edge, serving.LoadConfig{Users: 20000})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(c.Horizon())

	opts := monitor.DefaultOptions()
	opts.Staleness = []monitor.StalenessRule{{
		Name: "harvest_stale", Metric: harvest.MetricLastPassTime, MaxAge: 12 * 3600, Severity: monitor.SevCritical,
	}}
	opts.Rates = []monitor.RateRule{{
		Name: "quarantine_spike", Metric: harvest.MetricQuarantinedTotal, PerHourAbove: 1, Severity: monitor.SevWarning,
	}}
	var nodes []string
	for _, n := range c.Cluster().Nodes() {
		nodes = append(nodes, n.Name())
	}
	opts.Thresholds = append(opts.Thresholds, monitor.UsageRules(nodes, 2*3600, monitor.SevWarning)...)
	opts.Drift = monitor.DriftRule{RelAbove: 0.25, MinSecs: 600, Severity: monitor.SevWarning}
	opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
	opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
	mon := monitor.New(opts, tel.Registry())
	mon.Attach(c)

	spcObs := spc.New(spc.DefaultParams())
	spcObs.OnEvent(func(e spc.Event) {
		if cp := e.Changepoint; cp != nil {
			mon.ObserveChangepoint(e.Kind, e.Subject, cp.Day, cp.DetectedDay, cp.Cause, cp.Before, cp.After)
		}
		mon.ObserveControl(e.Kind, e.Subject, e.Point.Day, e.SeriesOut, e.Point.Value, e.Point.Center, e.Point.Rules.Names())
	})
	c.AddRunLogHook(func(r *logs.RunRecord) {
		if r.End <= 0 || r.Walltime <= 0 {
			return
		}
		deadline := 0.0
		if s := c.Spec(r.Forecast); s != nil && s.Deadline > 0 {
			deadline = float64(r.Day-c.StartDay())*factory.SecondsPerDay + s.Deadline
		}
		spcObs.ObserveRun(spc.RunObs{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Walltime: r.Walltime, End: r.End, Deadline: deadline,
		})
	})
}

// runLogs returns every run.log under /runs, keyed by path.
func runLogs(t *testing.T, c *factory.Campaign) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := c.FS().Walk("/runs", func(info vfs.FileInfo) error {
		if info.IsDir || info.Name != logs.LogName {
			return nil
		}
		text, err := c.FS().ReadFile(info.Path)
		out[info.Path] = text
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObserversDoNotPerturbSimulation is the first half of the
// determinism oracle: the growth campaign run bare on one OS thread and
// run with every observer attached on all of them produces the same run
// results, bit for bit, and the same run logs.
func TestObserversDoNotPerturbSimulation(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	bare := growthCampaign(t, nil)
	bareResults := bare.Run()
	runtime.GOMAXPROCS(prev)

	observed := growthCampaign(t, telemetry.New())
	attachObservers(t, observed)
	obsResults := observed.Run()

	if len(bareResults) != len(obsResults) {
		t.Fatalf("%d results bare, %d observed", len(bareResults), len(obsResults))
	}
	for i := range bareResults {
		a, b := bareResults[i], obsResults[i]
		// Floats compare by bit pattern: an unfinished run's End and
		// Walltime are NaN, which == never matches.
		for _, f := range [][2]*float64{{&a.Start, &b.Start}, {&a.End, &b.End}, {&a.Walltime, &b.Walltime},
			{&a.Code.CostFactor, &b.Code.CostFactor}} {
			if math.Float64bits(*f[0]) != math.Float64bits(*f[1]) {
				t.Fatalf("result %d differs:\nbare     %+v\nobserved %+v", i, bareResults[i], obsResults[i])
			}
			*f[0], *f[1] = 0, 0
		}
		if a != b {
			t.Fatalf("result %d differs:\nbare     %+v\nobserved %+v", i, bareResults[i], obsResults[i])
		}
	}

	bareLogs, obsLogs := runLogs(t, bare), runLogs(t, observed)
	if len(bareLogs) == 0 || len(bareLogs) != len(obsLogs) {
		t.Fatalf("%d run logs bare, %d observed", len(bareLogs), len(obsLogs))
	}
	for path, text := range bareLogs {
		if obsLogs[path] != text {
			t.Fatalf("%s differs:\nbare\n%s\nobserved\n%s", path, text, obsLogs[path])
		}
	}
}
