// Command factory runs a multi-day production campaign of the forecast
// factory and prints per-day walltimes, the event log, and node
// utilization — the raw material behind Figures 8 and 9.
//
// With -monitor-addr it also serves the control room while the campaign
// replays: a live HTML dashboard, Prometheus /metrics, and the JSON
// status/alert APIs. Combine with -replay-rate to slow the replay to an
// observable pace.
//
// With -harvest-interval the continuous harvest pipeline runs alongside
// the campaign: every N sim-hours an incremental pass crawls the run
// tree into the statistics database under watermark control, and the
// control room gains the harvest panel plus data-quality alerts
// (harvest staleness, quarantine-rate spikes).
//
// With -usage-interval the utilization observatory samples per-node CPU
// shares into a timeline (persisted to the node_usage table), detects
// contention and idle windows, renders the nodes×time heatmap, and —
// combined with -monitor-addr — serves /api/utilization, the dashboard
// heatmap panel, and saturation/imbalance/drift alerts. -pprof mounts
// Go profiling endpoints on the control-room server.
//
// With -serving-users the campaign's products go public: a serving edge
// (TTL cache keyed product+cycle, request coalescing, deadline-aware
// load shedding) runs on an added public-server node, every completed
// run publishes its forecast's products to it, and a diurnal crowd of
// that many simulated users hits the edge for the whole campaign. The
// end-of-campaign report shows hit rate, staleness-at-delivery
// percentiles, the per-product breakdown, and the demand-feedback
// priority table; with -monitor-addr the dashboard gains the live
// serving panel (/api/serving).
//
// Usage:
//
//	factory [-scenario fig8|fig9|growth] [-config file.json] [-forecast name]
//	        [-days n] [-snapshot hours] [-metrics-out file] [-trace-out file]
//	        [-monitor-addr host:port] [-replay-rate simsec-per-sec]
//	        [-harvest-interval hours] [-runs-dir dir]
//	        [-usage-interval minutes] [-pprof] [-serving-users n]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/logs"
	"repro/internal/observe"
	"repro/internal/plot"
	"repro/internal/serving"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

func main() {
	scenario := flag.String("scenario", "fig8", "campaign scenario: fig8 or fig9")
	forecastName := flag.String("forecast", "", "forecast to print the walltime series for (default: the scenario's subject)")
	days := flag.Int("days", 0, "override the number of days simulated")
	snapshotAt := flag.Float64("snapshot", 0, "pause at this many hours into the campaign and show the factory monitor")
	configPath := flag.String("config", "", "load the campaign from a JSON factory description instead of a built-in scenario")
	metricsOut := flag.String("metrics-out", "", "write campaign metrics in Prometheus text format to this file")
	traceOut := flag.String("trace-out", "", "write the campaign trace as Chrome trace-event JSON to this file")
	monitorAddr := flag.String("monitor-addr", "", "serve the control room (dashboard, /metrics, status and alert APIs) on this address while the campaign replays")
	replayRate := flag.Float64("replay-rate", 0, "pace the replay at this many sim-seconds per wall-second (0 = full speed; needs -monitor-addr to be observable)")
	harvestInterval := flag.Float64("harvest-interval", 0, "run an incremental harvest pass every this many sim-hours (0 = off)")
	runsDir := flag.String("runs-dir", "", "mirror every run log into this real directory tree (harvestable later with foreman -harvest)")
	usageInterval := flag.Float64("usage-interval", 0, "sample per-node CPU shares into the utilization timeline every this many sim-minutes (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/ on the control-room server")
	engineProf := flag.Bool("engineprof", false, "attach the kernel profiler and print the per-label hotspot summary at campaign end (implied by -monitor-addr, which serves the live report at /api/engine)")
	servingUsers := flag.Int("serving-users", 0, "serve the campaign's products from a public edge (TTL cache, coalescing, load shedding) to this many simulated users on an added public-server node (0 = off)")
	flag.Parse()

	var cfg factory.Config
	subject := ""
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = config.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(cfg.Forecasts) == 0 {
			fmt.Fprintln(os.Stderr, "config has no forecasts")
			os.Exit(1)
		}
		subject = cfg.Forecasts[0].Spec.Name
		*scenario = *configPath
	} else {
		switch *scenario {
		case "fig8":
			cfg = factory.Figure8Scenario()
			subject = "forecast-tillamook"
		case "fig9":
			cfg = factory.Figure9Scenario()
			subject = "forecasts-dev"
		case "growth":
			cfg = factory.GrowthScenario()
			subject = "forecast-g00"
		default:
			fmt.Fprintf(os.Stderr, "unknown scenario %q (fig8, fig9, or growth)\n", *scenario)
			os.Exit(2)
		}
	}
	if *forecastName != "" {
		subject = *forecastName
	}
	if *days > 0 {
		cfg.Days = *days
		var kept []factory.Event
		for _, e := range cfg.Events {
			if e.EventDay() < cfg.StartDay+cfg.Days {
				kept = append(kept, e)
			}
		}
		cfg.Events = kept
	}

	nodes := len(cfg.Nodes)
	if nodes == 0 {
		nodes = len(factory.DefaultNodes())
	}
	fmt.Printf("campaign %s: days %d..%d, %d forecasts, %d nodes\n",
		*scenario, max(cfg.StartDay, 1), max(cfg.StartDay, 1)+cfg.Days-1, len(cfg.Forecasts), nodes)
	for _, e := range cfg.Events {
		fmt.Printf("  event: %s\n", e)
	}

	if *metricsOut != "" || *traceOut != "" || *monitorAddr != "" || *harvestInterval > 0 || *usageInterval > 0 {
		cfg.Telemetry = telemetry.New()
	}

	c, err := factory.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *runsDir != "" {
		// Mirror every run-log write into a real directory tree, laid out
		// exactly like the campaign's virtual one, so a later
		// `foreman -harvest <dir>` picks up where the campaign left off.
		c.AddRunLogHook(func(r *logs.RunRecord) {
			dir := filepath.Join(*runsDir, r.Forecast, fmt.Sprintf("%d-%03d", r.Year, r.Day))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "runs-dir:", err)
				return
			}
			if err := os.WriteFile(filepath.Join(dir, "run.log"), []byte(logs.Format(r)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "runs-dir:", err)
			}
		})
	}

	// The wiring the observers-inert test runs. The kernel profiler rides
	// along whenever the control room serves, so /api/engine answers.
	o, err := observe.Observe(c, observe.Set{
		HarvestEvery: *harvestInterval * 3600,
		UsageEvery:   *usageInterval * 60,
		ServingUsers: *servingUsers,
		Monitor:      *monitorAddr != "",
		EngineProf:   *engineProf || *monitorAddr != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if o.SPC != nil {
		// The replan-trigger seam: a drift series leaving control means
		// the plan the factory executes no longer predicts reality.
		o.SPC.OnReplan(func(e spc.Event) {
			fmt.Printf("REPLAN trigger: drift/%s out of control on day %d (%+.0fs against plan)\n",
				e.Subject, e.Point.Day, e.Point.Value)
		})
	}

	// The control room serves from a wall-clock goroutine until the
	// campaign is over and the operator stops it; stopServing lets its
	// in-flight requests finish and waits for it.
	var servedAddr net.Addr
	var stopServing func()
	if *monitorAddr != "" {
		ln, err := net.Listen("tcp", *monitorAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv := o.Server()
		if *pprofOn {
			srv.EnablePprof()
		}
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan struct{})
		go func() {
			defer close(served)
			if err := srv.Serve(ctx, ln); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		stopServing = func() { cancel(); <-served }
		servedAddr = ln.Addr()
		fmt.Printf("control room serving on http://%s\n", servedAddr)
	}

	c.Prepare()
	if *snapshotAt > 0 {
		c.Engine().RunUntil(*snapshotAt * 3600)
		snap := c.Snapshot()
		fmt.Printf("\n--- factory monitor at t=%.1fh ---\n", snap.Now/3600)
		for _, a := range snap.Active {
			fmt.Printf("  running: %-24s day %3d on %-8s %5.1f%% of simulation done\n",
				a.Forecast, a.Day, a.Node, 100*a.SimProgress)
		}
		for _, sc := range snap.Scheduled {
			fmt.Printf("  queued:  %-24s day %3d on %-8s launches at %.1fh\n",
				sc.Forecast, sc.Day, sc.Node, sc.Start/3600)
		}
		fmt.Println()
		fmt.Print(snap.Gantt(72))
		fmt.Println()
	}
	if *replayRate > 0 {
		// Paced replay: advance the virtual clock in one-wall-second
		// chunks so the dashboard shows the campaign unfolding. The lag
		// gauge compares where the clock should be against where it is —
		// a growing value means the engine can't keep the requested pace.
		eng := c.Engine()
		expected := eng.Now()
		for eng.Now() < c.Horizon() {
			expected = min(expected+*replayRate, c.Horizon())
			eng.RunUntil(min(eng.Now()+*replayRate, c.Horizon()))
			eng.ObserveReplayLag(expected)
			time.Sleep(time.Second)
		}
	}
	results := c.Finish()
	if err := o.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}

	fmt.Printf("\n%s walltimes by day:\n", subject)
	daysOut, wt := factory.Walltimes(results, subject)
	if len(daysOut) == 0 {
		fmt.Fprintf(os.Stderr, "no finished runs for forecast %q\n", subject)
		os.Exit(1)
	}
	for i := range daysOut {
		fmt.Printf("  day %3d  %9.0f s\n", daysOut[i], wt[i])
	}

	records, err := logs.Crawl(c.FS(), "/runs")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	perForecast := map[string]int{}
	for _, r := range records {
		perForecast[r.Forecast]++
	}
	var names []string
	for n := range perForecast {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\nrun logs harvested: %d records\n", len(records))
	for _, n := range names {
		fmt.Printf("  %-24s %d runs\n", n, perForecast[n])
	}
	fmt.Println("\nnode utilization:")
	for _, n := range c.Cluster().Nodes() {
		fmt.Printf("  %-10s %5.1f%%\n", n.Name(), 100*n.Utilization())
	}

	if samp := o.Samp; samp != nil {
		fmt.Println("\nutilization observatory:")
		fmt.Print(samp.Report(5))
		var rows []string
		for _, n := range c.Cluster().Nodes() {
			rows = append(rows, n.Name())
		}
		grid := usage.CondenseGrid(rows, samp.Samples(), 96)
		hm := plot.Heatmap{
			Title: "node utilization heatmap (full campaign)",
			Rows:  grid.Nodes,
			Start: grid.Start,
			Step:  grid.Step,
			Cells: grid.Utilization,
			Width: 96,
		}
		fmt.Println()
		fmt.Print(hm.Render())
		fmt.Printf("node_usage table: %d rows\n", o.DB.Table(usage.NodeUsageTableName).Len())
	}

	if o.Harv != nil {
		st := o.Harv.Status()
		fmt.Printf("\nharvest pipeline: %d passes, %d records ingested (%d updated), %d watermark hits, %d quarantined\n",
			st.Passes, st.Totals.Ingested, st.Totals.Updated, st.Totals.WatermarkHits, st.Totals.Quarantined)
		for _, q := range st.Quarantine {
			fmt.Printf("  quarantined: %s (%s)\n", q.Path, q.Error)
		}
	}

	if edge := o.Edge; edge != nil {
		st := edge.Stats()
		fmt.Println("\npublic serving edge:")
		fmt.Print(serving.SummaryTable(st))
		fmt.Println()
		fmt.Print(serving.ProductTable(st, 10))
		// The demand feedback loop: the crowd the edge observed, ranked
		// against the specs' configured priorities — the next planning
		// cycle's priority boost for storm-hit forecasts.
		fmt.Println()
		fmt.Print(serving.DemandTable(o.ServingBase, edge.ForecastDemand()))
		fmt.Printf("serving_stats table: %d products\n", len(st.Products))
	}

	tel := c.Telemetry()
	if err := tel.WriteFiles(*metricsOut, *traceOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceOut != "" {
		// The trace doubles as the data source for the ForeMan Gantt view:
		// render the last day's run spans as executed.
		spans := tel.Trace().Spans()
		bars := plot.GanttFromSpans(spans, "run")
		if len(bars) > 0 {
			lastDay := 0.0
			for _, b := range bars {
				lastDay = max(lastDay, b.Start)
			}
			dayStart := float64(int(lastDay/86400)) * 86400
			var dayBars []plot.GanttBar
			for _, b := range bars {
				if b.Start >= dayStart {
					b.Start -= dayStart
					b.End -= dayStart
					dayBars = append(dayBars, b)
				}
			}
			g := plot.Gantt{Title: "last day as executed (from trace spans)", Bars: dayBars, Width: 72}
			fmt.Println()
			fmt.Print(g.Render())
		}
	}

	if o.Prof != nil {
		// Rendered from the engine rows Close persisted: the same rows
		// foreman -engineprof and /api/engine derive from.
		if rep, err := engineprof.ReadReport(o.DB); err == nil {
			fmt.Println("\nengine observatory (live report at /api/engine):")
			fmt.Print(engineprof.SummaryTable(rep, 8))
		}
	}

	if mon := o.Mon; mon != nil {
		fmt.Println("\nSLO report (deadline attainment):")
		fmt.Print(mon.Report())
		if rep, err := spc.ReadReport(o.DB); err == nil && len(rep.Series) > 0 {
			fmt.Println("\nprocess control (full report at /api/spc):")
			fmt.Print(spc.SummaryTable(rep))
			if cps := spc.ChangepointTable(rep); cps != "" {
				fmt.Println()
				fmt.Print(cps)
			}
		}
		if alerts := mon.Alerts(); len(alerts) > 0 {
			firing := 0
			for _, a := range alerts {
				if a.Firing() {
					firing++
				}
			}
			fmt.Printf("\nalerts: %d total, %d still firing (full history at /api/alerts)\n",
				len(alerts), firing)
		}
		fmt.Printf("\ncontrol room still serving on http://%s — Ctrl-C to exit\n", servedAddr)
		// Only now does an interrupt let in-flight requests finish;
		// during the replay it still stops the process at once.
		interrupted, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		<-interrupted.Done()
		stop()
		stopServing()
	}
}
