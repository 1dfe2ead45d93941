// Command foreman demonstrates the ForeMan management flow on the paper's
// plant (six dual-CPU nodes, ten daily forecasts): it bootstraps a few
// days of history by running the factory simulator, harvests the run logs
// into the statistics database, estimates today's runs, packs them onto
// nodes, prints the rough-cut capacity plan, the predicted completion
// times as a Gantt chart, and the generated staging scripts. What-if moves
// and node-failure rescheduling are available as flags; both run on the
// planner's incremental prediction engine, which re-sweeps only the nodes
// an edit touches instead of repredicting the whole plant (the
// core_predict_* metrics in -metrics-out show full vs incremental sweep
// counts).
//
// Usage:
//
//	foreman [-heuristic stay-put|ffd|bfd|wfd] [-fail node] [-policy minimal|reshuffle]
//	        [-move run=node] [-scripts] [-hindcast n] [-sql query] [-now hour]
//	        [-slo] [-metrics-out file] [-trace-out file]
//	        [-harvest dir] [-provenance code-version] [-utilization] [-serving]
//
// -utilization replays today's plan on a simulated plant with each run
// carrying its spec's true work: the usage sampler records per-node
// CPU-share timelines (rendered as a heatmap), detects contention and
// idle windows, and the drift report compares every observed completion
// against ForeMan's prediction. Timelines land in the node_usage table
// and drift records in the drift table (schema v3), both queryable in a
// later -sql invocation's database when combined with -harvest trees.
//
// -serving exercises the public product-serving edge: a two-day
// synthetic crowd (diurnal cycle plus a flash crowd on the plant's
// highest-priority region, with the day-1 forecast deliberately late)
// hits a TTL cache with request coalescing and deadline-aware load
// shedding. The report shows hit rate, staleness-at-delivery
// percentiles, shed fractions by tier, the per-product breakdown, and
// the demand-feedback priority table; results persist to the
// serving_stats table (schema v7) for a same-invocation -sql query.
//
// The -sql flag accepts the statsdb SELECT subset, including JOINs against
// the nodes table and EXPLAIN; the bootstrap campaign's trace spans are
// loaded into a "spans" table queryable the same way, and the control-room
// monitor's alert history into an "alerts" table joinable against runs.
// -slo prints the monitor's deadline-attainment report and alert history
// for the bootstrap campaign.
//
// Run records reach the database through the incremental harvest
// pipeline in both modes: the bootstrap campaign's virtual run tree is
// harvested in place, while -harvest <dir> ingests a real directory tree
// (for example one written by `factory -runs-dir`), keeping a watermark
// journal and a record snapshot (<dir>/.harvest-journal.jsonl and
// .harvest-snapshot.jsonl) so repeated invocations only re-read logs that
// changed. -provenance answers the paper's manageability query —
// which forecasts used a given code version — from the harvested rows.
package main

import (
	"flag"
	"fmt"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/forensics"
	"repro/internal/harvest"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/plot"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/usage"
	"repro/internal/vfs"
)

// plantSpecs builds the paper's ten daily forecasts.
func plantSpecs() []*forecast.Spec {
	mk := func(name, region string, ts, sides, products, prio int, startHour float64) *forecast.Spec {
		s := forecast.NewSpec(name, region, ts, sides, products)
		s.StartOffset = startHour * 3600
		s.Priority = prio
		return s
	}
	return []*forecast.Spec{
		forecast.Tillamook(),
		mk("forecast-columbia", "columbia", 5760, 28000, 8, 8, 2),
		mk("forecast-yaquina", "yaquina", 4320, 20000, 6, 5, 3),
		mk("forecast-newport", "newport", 4320, 18000, 6, 5, 3),
		mk("forecast-coos-bay", "coos-bay", 3600, 18000, 6, 4, 4),
		mk("forecast-willapa", "willapa", 3600, 16000, 6, 4, 4),
		mk("forecast-grays", "grays-harbor", 2880, 16000, 4, 3, 3),
		mk("forecast-nehalem", "nehalem", 2880, 14000, 4, 3, 5),
		mk("forecast-umpqua", "umpqua", 2880, 12000, 4, 2, 5),
		forecast.Dev(),
	}
}

func heuristicByName(name string) (core.Heuristic, bool) {
	switch name {
	case "stay-put":
		return core.StayPut, true
	case "ffd":
		return core.FirstFitDecreasing, true
	case "bfd":
		return core.BestFitDecreasing, true
	case "wfd":
		return core.WorstFitDecreasing, true
	default:
		return 0, false
	}
}

func main() {
	heuristicFlag := flag.String("heuristic", "stay-put", "assignment heuristic: stay-put, ffd, bfd, wfd")
	failNode := flag.String("fail", "", "simulate failure of this node and reschedule")
	policyFlag := flag.String("policy", "minimal", "rescheduling policy after failure: minimal or reshuffle")
	moveFlag := flag.String("move", "", "what-if move, run=node")
	scriptsFlag := flag.Bool("scripts", false, "print the generated staging scripts")
	sqlFlag := flag.String("sql", "", "run a SQL query against the harvested statistics database")
	nowHour := flag.Float64("now", 9, "current time of day (hours) for the Gantt marker")
	bootstrapDays := flag.Int("bootstrap", 3, "days of history to simulate before planning")
	hindcasts := flag.Int("hindcast", 0, "backfill this many hindcast jobs into idle capacity")
	metricsOut := flag.String("metrics-out", "", "write bootstrap + planner metrics in Prometheus text format to this file")
	traceOut := flag.String("trace-out", "", "write the bootstrap + planner trace as Chrome trace-event JSON to this file")
	sloFlag := flag.Bool("slo", false, "print the control-room SLO report and alert history for the bootstrap campaign")
	harvestDir := flag.String("harvest", "", "harvest run logs incrementally from this real directory tree instead of bootstrapping a simulated campaign")
	provenanceFlag := flag.String("provenance", "", "report every forecast using this code version from the harvested database, then exit")
	utilizationFlag := flag.String("utilization", "", "replay today's plan on a simulated plant, print the utilization report, heatmap, contention windows, and plan-vs-actual drift for this forecast (\"all\" for every run), and persist node_usage + drift tables")
	blameFlag := flag.String("blame", "", "print the lateness-blame forensics report for this forecast (\"all\" for every forecast) from the bootstrap campaign")
	spcFlag := flag.String("spc", "", "print the SPC control-chart report (run rules, changepoints) for this forecast (\"all\" for every series) from the bootstrap campaign")
	engineProfFlag := flag.Bool("engineprof", false, "attach the kernel profiler to the bootstrap campaign (and the -utilization replay) and print the per-label hotspot report with the queue-depth chart")
	servingFlag := flag.Bool("serving", false, "run the public product-serving edge against a two-day synthetic crowd (diurnal load plus a flash crowd, late day-1 forecast), print the serving-quality and demand-feedback report, and persist the serving_stats table")
	pprofOut := flag.String("pprof", "", "write a CPU profile covering this invocation's replay paths to this file (batch-mode mirror of the factory's /debug/pprof endpoints)")
	flag.Parse()

	h, ok := heuristicByName(*heuristicFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown heuristic %q\n", *heuristicFlag)
		os.Exit(2)
	}

	// -pprof profiles the whole invocation: bootstrap replay, planning,
	// and the -utilization replay. The profile is finalized on the
	// success path; error paths exit through os.Exit and leave a
	// truncated file, which pprof rejects loudly rather than misreads.
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", *pprofOut)
		}()
	}

	// 1. History: either harvest a real directory tree incrementally, or
	// bootstrap one by running the factory for a few days and harvesting
	// its virtual run tree — the pipeline replacement for the nightly
	// one-shot Perl crawlers.
	specs := plantSpecs()
	nodeSpecs := factory.DefaultNodes()
	// A flag naming a forecast the plant has never heard of would render
	// an empty report; fail fast with the roster instead.
	for _, f := range []struct{ name, value string }{
		{"blame", *blameFlag}, {"utilization", *utilizationFlag}, {"spc", *spcFlag},
	} {
		if err := validateForecastFlag(f.name, f.value, specs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// -sql turns collection on too: the bootstrap trace becomes the
	// "spans" table, queryable whether or not an export file was asked
	// for.
	var tel *telemetry.Telemetry
	if *metricsOut != "" || *traceOut != "" || *sqlFlag != "" || *sloFlag || *blameFlag != "" || *spcFlag != "" {
		tel = telemetry.New()
		core.SetTelemetry(tel)
		defer core.SetTelemetry(nil)
	}

	db := statsdb.NewDB()
	var records []*logs.RunRecord
	var mon *monitor.Monitor
	var kprof *engineprof.Profiler

	if *harvestDir != "" {
		if *blameFlag != "" {
			fmt.Fprintln(os.Stderr, "-blame needs the bootstrap campaign's trace and timeline; it is ignored with -harvest")
		}
		if *spcFlag != "" {
			fmt.Fprintln(os.Stderr, "-spc needs the bootstrap campaign's monitor and timeline; it is ignored with -harvest")
		}
		if *engineProfFlag {
			fmt.Fprintln(os.Stderr, "-engineprof profiles the bootstrap campaign's engine; it is ignored with -harvest")
		}
		records = harvestOSTree(db, *harvestDir)
	} else {
		assignments := make([]factory.Assignment, len(specs))
		for i, s := range specs {
			assignments[i] = factory.Assignment{Spec: s, Node: nodeSpecs[i%len(nodeSpecs)].Name}
		}
		campaign, err := factory.New(factory.Config{
			Days:      *bootstrapDays,
			Nodes:     nodeSpecs,
			Forecasts: assignments,
			Telemetry: tel,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *engineProfFlag {
			kprof = engineprof.New()
			campaign.Engine().SetProbe(kprof)
		}
		// The control room watches the bootstrap campaign: its alert history
		// becomes the "alerts" table and its SLO report backs -slo.
		if tel != nil {
			opts := monitor.DefaultOptions()
			// A day whose dominant lateness cause differs from the
			// previous day's is an assignable-cause signal; -blame feeds
			// the per-day decomposition back into this rule.
			opts.Blame = monitor.BlameShiftRule{MinLateness: 600, Severity: monitor.SevWarning}
			// -spc streams the observatory's verdicts into the alert book.
			opts.OutOfControl = monitor.OutOfControlRule{Enabled: true, Severity: monitor.SevWarning}
			opts.Changepoint = monitor.ChangepointRule{Enabled: true, Severity: monitor.SevWarning}
			mon = monitor.New(opts, tel.Registry())
			mon.Attach(campaign)
		}
		var samp *usage.Sampler
		if *blameFlag != "" || *spcFlag != "" {
			// -blame splits lateness into contention vs failure and -spc
			// charts per-node mean share, so both need the per-node share
			// and downtime timeline sampled while the campaign runs.
			campaign.Prepare()
			samp = usage.NewSampler(campaign.Cluster(), usage.Options{Interval: 900, Telemetry: tel})
			samp.Start(campaign.Horizon())
		}
		campaign.Run()
		if mon != nil {
			mon.Finalize(campaign.Engine().Now())
		}
		if samp != nil {
			samp.Finalize(campaign.Engine().Now())
		}
		// Harvest the campaign's run tree into the database (watermarked
		// and quarantining, like the continuous pipeline would).
		h, err := harvest.New(campaign.FS(), db,
			harvest.NewVFSJournal(campaign.FS(), "/harvest/journal.jsonl"),
			harvest.Options{Telemetry: tel, Clock: campaign.Engine().Now})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err := h.Pass()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, q := range h.Quarantine() {
			fmt.Fprintf(os.Stderr, "quarantined: %s (%s)\n", q.Path, q.Error)
		}
		records, err = h.Records()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("bootstrapped %d run records over %d days (%d quarantined)\n",
			len(records), *bootstrapDays, st.Quarantined)
		if tel != nil {
			// The bootstrap trace is queryable alongside the run records.
			if _, err := statsdb.LoadSpans(db, tel.Trace().Spans()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *blameFlag != "" {
			// Before LoadAlerts, so any blame_shift alert the forensics
			// raise lands in the alerts table too.
			blameForensics(db, campaign, mon, samp, tel, specs, *blameFlag)
		}
		if *spcFlag != "" {
			// Likewise before LoadAlerts: out_of_control and changepoint
			// alerts join the persisted alert history.
			spcReport(db, campaign, mon, samp, *spcFlag)
		}
		if mon != nil {
			// Control-room alert history joins against runs via -sql.
			if _, err := monitor.LoadAlerts(db, mon.Alerts()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if kprof != nil {
		engineprofReport(db, kprof)
	}

	// Before the -sql early return, so `-serving -sql` can query the
	// freshly loaded serving_stats table.
	if *servingFlag {
		servingReport(db, specs)
	}

	if *provenanceFlag != "" {
		defer flushTelemetry(tel, *metricsOut, *traceOut)
		p, err := harvest.QueryProvenance(db, *provenanceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(p.String())
		return
	}
	if *sloFlag && mon != nil {
		fmt.Println("\nSLO report (deadline attainment):")
		fmt.Print(mon.Report())
		alerts := mon.Alerts()
		fmt.Printf("\nalert history: %d alerts\n", len(alerts))
		for _, a := range alerts {
			resolved := "still firing"
			if a.ResolvedAt > 0 {
				resolved = fmt.Sprintf("resolved %6.1fh", a.ResolvedAt/3600)
			}
			fmt.Printf("  #%-3d %-8s %-10s %-24s day %3d fired %6.1fh %-16s %s\n",
				a.ID, a.Severity, a.Rule, a.Forecast, a.Day, a.FiredAt/3600, resolved, a.Message)
		}
	}
	// With -utilization the query is deferred until after the replay has
	// populated the node_usage and drift tables it most likely targets.
	if *sqlFlag != "" && *utilizationFlag == "" {
		defer flushTelemetry(tel, *metricsOut, *traceOut)
		runSQL(db, *sqlFlag)
		return
	}

	// 2. Estimate today's runs from history and pack them.
	nodes := make([]core.NodeInfo, len(nodeSpecs))
	for i, ns := range nodeSpecs {
		nodes[i] = core.NodeInfo{Name: ns.Name, CPUs: ns.CPUs, Speed: ns.Speed}
	}
	estimator := core.NewEstimator(records, nodes)
	runs := estimator.PlanRuns(specs, nodes)

	// Replay the estimator against history: how far off would ForeMan's
	// predictions have been for the runs we already know the answer to?
	acc := core.EvaluateEstimates(records, nodes)
	if len(acc.Samples) > 0 {
		fmt.Printf("estimate accuracy: MAPE %.2f%% over %d replayed runs\n", acc.MAPE, len(acc.Samples))
	}

	schedule, err := core.BuildSchedule(nodes, runs, core.ScheduleOptions{Heuristic: h, AllowDrop: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// 3. What-if interactions.
	if *moveFlag != "" {
		run, node, ok := strings.Cut(*moveFlag, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "-move wants run=node, got %q\n", *moveFlag)
			os.Exit(2)
		}
		makespanBefore := schedule.Prediction.Makespan()
		if err := schedule.Move(run, node); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("what-if: moved %s to %s (makespan %.0fs → %.0fs)\n",
			run, node, makespanBefore, schedule.Prediction.Makespan())
	}
	if *failNode != "" {
		pol := core.MinimalMove
		if *policyFlag == "reshuffle" {
			pol = core.FullReshuffle
		}
		before := schedule
		schedule, err = core.RescheduleAfterFailure(schedule, *failNode, pol, h)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("node %s failed; policy %s moved runs: %s\n",
			*failNode, pol, strings.Join(core.MovedRuns(before, schedule), ", "))
	}

	if *hindcasts > 0 {
		jobs := make([]core.BackfillJob, *hindcasts)
		for i := range jobs {
			jobs[i] = core.BackfillJob{
				Name: fmt.Sprintf("hindcast-%02d", i+1),
				Work: 30000,
			}
		}
		placed, skipped, err := core.PlanBackfill(schedule, jobs, 2*86400)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("backfill: placed %d hindcast jobs, skipped %d\n", len(placed), len(skipped))
		for _, p := range placed {
			fmt.Printf("  %-14s on %-8s start %7.0f done %7.0f\n", p.Job.Name, p.Node, p.Start, p.Completion)
		}
	}

	// 4. Report.
	fmt.Println()
	fmt.Print(core.RoughCut(schedule.Plan.Nodes, schedule.Plan.Runs, 86400, schedule.Plan.Assign))

	fmt.Printf("\nheuristic: %s\n", h)
	if len(schedule.Dropped) > 0 {
		fmt.Printf("dropped (low priority, capacity short): %s\n", strings.Join(schedule.Dropped, ", "))
	}
	if late := schedule.Late(); len(late) > 0 {
		fmt.Printf("LATE: %s\n", strings.Join(late, ", "))
	} else {
		fmt.Println("all runs predicted to meet their deadlines")
	}

	var bars []plot.GanttBar
	var names []string
	for _, r := range schedule.Plan.Runs {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		r, _ := schedule.Plan.Run(name)
		bars = append(bars, plot.GanttBar{
			Node:  schedule.Plan.Assign[name],
			Run:   name,
			Start: r.Start,
			End:   schedule.Prediction.Completion[name],
		})
	}
	fmt.Println()
	fmt.Print(plot.Gantt{Title: "today's plan (predicted completions)", Bars: bars, Now: *nowHour * 3600, Horizon: 86400}.Render())

	if *utilizationFlag != "" {
		utilizationReplay(schedule, specs, db, tel, *utilizationFlag, *engineProfFlag)
		if *sqlFlag != "" {
			fmt.Println()
			runSQL(db, *sqlFlag)
		}
	}

	if *scriptsFlag {
		scripts, err := core.ShellBackend{Repository: "/repository"}.Generate(schedule)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(core.RenderScripts(scripts))
	}

	flushTelemetry(tel, *metricsOut, *traceOut)
}

// runSQL prints a query's result table, exiting 1 on a bad query.
func runSQL(db *statsdb.DB, query string) {
	res, err := db.Query(query)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
}

// validateForecastFlag rejects a forecast-selecting flag value that names
// no forecast on the plant's roster ("" = flag unused, "all" = every
// forecast): an unknown name would otherwise render an empty report.
func validateForecastFlag(flagName, value string, specs []*forecast.Spec) error {
	if value == "" || value == "all" {
		return nil
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Name == value {
			return nil
		}
		names[i] = s.Name
	}
	return fmt.Errorf("foreman: -%s: unknown forecast %q (known: %s, or \"all\")",
		flagName, value, strings.Join(names, ", "))
}

// utilizationReplay executes today's plan on a simulated plant and
// compares what happened against what ForeMan predicted. Each assigned
// run launches at its earliest start on its planned node, carrying the
// spec's true work (not the estimator's figure) — so the replay drifts
// from the plan exactly the way reality does: through estimate error and
// CPU-share contention. The usage sampler records the per-node timeline;
// drift joins the observed completions against the prediction; both
// persist into the statistics database (schema v3) for -sql queries.
// forecastName narrows the drift report ("all" = every run); the replay,
// the heatmap, and the persisted tables always cover the whole plan.
func utilizationReplay(schedule *core.Schedule, specs []*forecast.Spec, db *statsdb.DB, tel *telemetry.Telemetry, forecastName string, profile bool) {
	eng := sim.NewEngine()
	if tel != nil {
		eng.Instrument(tel.Registry())
	}
	var kprof *engineprof.Profiler
	if profile {
		kprof = engineprof.New()
		eng.SetProbe(kprof)
	}
	cl := cluster.New(eng)
	for _, n := range schedule.Plan.Nodes {
		node := cl.AddNode(n.Name, n.CPUs, n.Speed)
		if n.Down {
			node.Fail()
		}
	}
	samp := usage.NewSampler(cl, usage.Options{Interval: 900, Telemetry: tel, StatusCols: 96})

	specOf := make(map[string]*forecast.Spec, len(specs))
	for _, s := range specs {
		specOf[s.Name] = s
	}
	replaySched := eng.Scope("replay")
	var outcomes []usage.Outcome
	for _, r := range schedule.Plan.Runs {
		nodeName, ok := schedule.Plan.Assign[r.Name]
		if !ok {
			continue // dropped by the planner: nothing to replay
		}
		run := r
		node := cl.Node(nodeName)
		work := run.Work
		if s := specOf[run.Name]; s != nil {
			work = s.TotalWork()
		}
		replaySched.At(run.Start, func() {
			start := eng.Now()
			done := func() {
				outcomes = append(outcomes, usage.Outcome{
					Run: run.Name, Node: nodeName,
					Start: start, End: eng.Now(), Finished: true,
				})
			}
			if run.Width > 1 {
				node.SubmitParallel(run.Name, work, run.Width, done)
			} else {
				node.Submit(run.Name, work, done)
			}
		})
	}

	horizon := 86400.0
	for _, c := range schedule.Prediction.Completion {
		if !math.IsInf(c, 0) && c*1.5 > horizon {
			horizon = c * 1.5
		}
	}
	samp.Start(horizon)
	eng.Run()
	samp.Finalize(eng.Now())

	fmt.Println("\nutilization replay (plan executed with true work):")
	fmt.Print(samp.Report(5))
	st := samp.Status()
	fmt.Println()
	fmt.Print(plot.Heatmap{
		Title: "node utilization heatmap (15 min per column)",
		Rows:  st.Grid.Nodes,
		Start: st.Grid.Start,
		Step:  st.Grid.Step,
		Cells: st.Grid.Utilization,
		Width: 96,
	}.Render())

	drifts := usage.ComputeDrift(schedule.Plan, schedule.Prediction, outcomes, samp)
	shown := drifts
	if forecastName != "all" {
		shown = nil
		for _, d := range drifts {
			if d.Run == forecastName {
				shown = append(shown, d)
			}
		}
	}
	fmt.Println()
	fmt.Print(usage.DriftReport(shown))

	if _, err := usage.LoadSamples(db, samp.Samples()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := usage.LoadDrift(db, drifts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("persisted: node_usage %d rows, drift %d rows (schema v%d; query with -sql)\n",
		db.Table(usage.NodeUsageTableName).Len(), db.Table(usage.DriftTableName).Len(),
		statsdb.SchemaVersion(db))

	if kprof != nil {
		// The replay engine's profile renders live (the statsdb rows hold
		// the bootstrap campaign's profile; mixing two engines' rows under
		// the same labels would double-count).
		rep := kprof.Report()
		fmt.Println("\nengine observatory (utilization replay):")
		fmt.Print(engineprof.SummaryTable(rep, 10))
		fmt.Println()
		fmt.Print(engineprof.DepthChart(rep))
	}
}

// engineprofReport persists the bootstrap campaign's kernel profile into
// the v6 tables and re-reads it before rendering, so this output, the
// statsdb rows, and the monitor's /api/engine endpoint agree — the same
// discipline as -blame and -spc.
func engineprofReport(db *statsdb.DB, kprof *engineprof.Profiler) {
	if err := engineprof.LoadReport(db, kprof.Report()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := engineprof.ReadReport(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\nengine observatory (bootstrap campaign):")
	fmt.Print(engineprof.SummaryTable(rep, 10))
	fmt.Println()
	fmt.Print(engineprof.HistTable(rep, 10))
	fmt.Println()
	fmt.Print(engineprof.DepthChart(rep))
	fmt.Printf("persisted: %s %d rows, %s %d rows (schema v%d; query with -sql)\n",
		engineprof.ProfileTableName, db.Table(engineprof.ProfileTableName).Len(),
		engineprof.DepthTableName, db.Table(engineprof.DepthTableName).Len(),
		statsdb.SchemaVersion(db))
}

// blameForensics reconstructs the bootstrap campaign's causal chains and
// prints the lateness forensics: the per-run blame decomposition, the
// per-day aggregate with its stacked blame-mix bar, and the worst run's
// critical path as a Gantt. The analysis is persisted into the v4 tables
// (lateness_blame, critical_paths) first and the report re-read from
// them, so this output and the monitor's /api/forensics endpoint render
// the same rows. Each day's dominant cause also feeds the monitor's
// blame-shift rule, whose alerts join the alert history.
func blameForensics(db *statsdb.DB, campaign *factory.Campaign, mon *monitor.Monitor,
	samp *usage.Sampler, tel *telemetry.Telemetry, specs []*forecast.Spec, forecastName string) {
	if forecastName == "all" {
		forecastName = ""
	}
	specOf := make(map[string]*forecast.Spec, len(specs))
	for _, s := range specs {
		specOf[s.Name] = s
	}
	// The plan blame is measured against is the one the control room
	// watched: the launch rule (day start + spec offset) for the planned
	// start, the launch-time completion prediction for the planned end,
	// and the SLO deadline. Runs the monitor never saw launch (dropped)
	// get a zero-length plan window and are analyzed as unplanned.
	var plan []forensics.PlanEntry
	for _, r := range mon.Status().Runs {
		start := r.Start
		if s := specOf[r.Forecast]; s != nil {
			start = float64(r.Day-campaign.StartDay())*factory.SecondsPerDay + s.StartOffset
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
	rep, err := forensics.Analyze(forensics.Input{
		Spans:    tel.Trace().Spans(),
		Plan:     plan,
		Timeline: samp,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := forensics.LoadReport(db, rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err = forensics.ReadReport(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\nlateness blame%s (schema v%d; tables lateness_blame, critical_paths):\n",
		blameForClause(forecastName), statsdb.SchemaVersion(db))
	fmt.Print(forensics.BlameTable(rep, forecastName))
	fmt.Println("\nper-day blame mix:")
	fmt.Print(forensics.DayTable(rep, 40))
	if worst := forensics.WorstRun(rep, forecastName); worst != nil {
		fmt.Println()
		fmt.Print(forensics.PathGantt(worst))
	}

	for _, d := range rep.Days {
		mon.ObserveBlame(d.Day, d.Dominant, d.Lateness)
	}
	for _, a := range mon.FiringAlerts() {
		if a.Rule == "blame_shift" {
			fmt.Printf("\nALERT %s %s: %s\n", a.Severity, a.Rule, a.Message)
		}
	}
}

func blameForClause(forecastName string) string {
	if forecastName == "" {
		return ""
	}
	return " for " + forecastName
}

// spcReport runs the SPC observatory over the bootstrap campaign's vital
// signs and prints the control-chart report. Baselines are seeded from
// the harvested runs table (segmented at code-version changes); the
// campaign's completed runs then stream through the charts in completion
// order — walltime, estimate error, plan-vs-actual drift, daily
// lateness, and per-node daily mean share. The observatory's verdicts
// feed the monitor's out_of_control/changepoint rules as they happen,
// the snapshot persists into the v5 tables (control_points,
// changepoints), and the report is re-read from them — so this output
// and the monitor's /api/spc endpoint render the same rows.
func spcReport(db *statsdb.DB, campaign *factory.Campaign, mon *monitor.Monitor,
	samp *usage.Sampler, forecastName string) {
	subject := forecastName
	if subject == "all" {
		subject = ""
	}
	obs := spc.New(spc.DefaultParams())
	fits, err := obs.SeedFromDB(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	obs.OnEvent(func(e spc.Event) {
		if cp := e.Changepoint; cp != nil {
			mon.ObserveChangepoint(e.Kind, e.Subject, cp.Day, cp.DetectedDay, cp.Cause, cp.Before, cp.After)
		}
		mon.ObserveControl(e.Kind, e.Subject, e.Point.Day, e.SeriesOut, e.Point.Value, e.Point.Center, e.Point.Rules.Names())
	})
	// The replan-trigger seam: a drift series leaving control means the
	// plan the factory is executing no longer predicts reality.
	obs.OnReplan(func(e spc.Event) {
		fmt.Printf("REPLAN trigger: drift/%s out of control on day %d (%+.0fs against plan)\n",
			e.Subject, e.Point.Day, e.Point.Value)
	})

	// Stream completed runs through the charts in completion order.
	runs := mon.Status().Runs
	sort.Slice(runs, func(i, j int) bool { return runs[i].End < runs[j].End })
	for _, r := range runs {
		if r.End == 0 {
			continue // never completed: nothing to chart
		}
		var estWall float64
		if r.LaunchETA > r.Start {
			estWall = r.LaunchETA - r.Start
		}
		obs.ObserveRun(spc.RunObs{
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Walltime: r.Walltime, EstimatedWalltime: estWall,
			End: r.End, Deadline: r.Deadline,
		})
		if r.LaunchETA > 0 {
			obs.ObserveDrift(r.Forecast, r.Day, r.End, r.End-r.LaunchETA)
		}
	}
	// Per-node daily mean share from the usage timeline.
	for day := campaign.StartDay(); day < campaign.StartDay()+campaign.Days(); day++ {
		d0 := float64(day-campaign.StartDay()) * factory.SecondsPerDay
		d1 := d0 + factory.SecondsPerDay
		for _, n := range campaign.Cluster().Nodes() {
			obs.ObserveNodeShare(n.Name(), day, d1, samp.MeanShareOver(n.Name(), d0, d1))
		}
	}
	obs.Finalize()

	if err := spc.LoadReport(db, obs.Report()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := spc.ReadReport(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep = spc.FilterSubject(rep, subject)

	fmt.Printf("\nprocess control%s (schema v%d; tables control_points, changepoints; %d history baselines):\n",
		blameForClause(subject), statsdb.SchemaVersion(db), len(fits))
	fmt.Print(spc.SummaryTable(rep))
	fmt.Println()
	fmt.Print(spc.ChangepointTable(rep))
	for i := range rep.Series {
		sr := &rep.Series[i]
		// For the full-plant view, chart only the series with something
		// to say; a named forecast gets all of its charts.
		if subject == "" && !sr.Out && sr.Violations == 0 && len(sr.Changepoints) == 0 {
			continue
		}
		fmt.Println()
		fmt.Print(spc.SeriesChart(sr, 72, 14))
	}
	for _, a := range mon.FiringAlerts() {
		if a.Rule == "out_of_control" || a.Rule == "changepoint" {
			fmt.Printf("\nALERT %s %s: %s\n", a.Severity, a.Rule, a.Message)
		}
	}
}

// servingReport runs the public product-serving edge against a synthetic
// two-day crowd — diurnal load, a flash crowd on the plant's
// highest-priority region, and a deliberately late day-1 forecast — and
// prints the serving-quality report. The edge's admission oracle reuses
// the on-demand deadline policy, so the report also states whether any
// made-to-stock deadline was displaced by render load, and the demand
// table shows how the observed crowd would re-rank forecast priorities
// for the next planning cycle.
func servingReport(db *statsdb.DB, specs []*forecast.Spec) {
	base := make(map[string]int, len(specs))
	for _, s := range specs {
		base[s.Region] = s.Priority
	}
	// The flash crowd hits the plant's highest-priority region.
	stormRegion := ""
	for r, p := range base {
		if stormRegion == "" || p > base[stormRegion] ||
			(p == base[stormRegion] && r < stormRegion) {
			stormRegion = r
		}
	}
	cfg := serving.ScenarioConfig{
		Days:     2,
		Users:    300000,
		Products: serving.DefaultProducts(base),
		LateDay:  1,
		LateBy:   2 * 3600,
		Load: serving.LoadConfig{
			Storms: []serving.Storm{{
				Start: 86400 + 7*3600, Duration: 5 * 3600, Multiplier: 6,
				Forecast: stormRegion,
			}},
		},
	}
	res, err := serving.RunScenario(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := serving.LoadReport(db, res.Stats); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nproduct serving edge (schema v%d; table serving_stats): %d users over %d days, storm on %s, day-1 forecast %.0fh late\n",
		statsdb.SchemaVersion(db), cfg.Users, cfg.Days, stormRegion, cfg.LateBy/3600)
	fmt.Print(serving.SummaryTable(res.Stats))
	fmt.Println()
	fmt.Print(serving.ProductTable(res.Stats, 10))
	fmt.Println()
	fmt.Print(serving.DemandTable(base, res.Demand))
	if len(res.StockLate) == 0 {
		fmt.Printf("made-to-stock protection: all %d stock runs met their deadlines under render load\n",
			len(res.StockCompletion))
	} else {
		fmt.Printf("made-to-stock runs displaced by render load: %s\n",
			strings.Join(res.StockLate, ", "))
	}
}

// osFS adapts a real directory tree to the harvester's FS interface,
// mounting the tree root at "/runs" so journal paths and source_path
// columns stay stable no matter where the tree lives on disk. ReadFile
// only touches disk when the harvester asks, so watermark hits cost one
// stat, not one read.
type osFS struct{ root string }

func (o osFS) real(vpath string) string {
	return filepath.Join(o.root, filepath.FromSlash(strings.TrimPrefix(vpath, "/runs")))
}

func (o osFS) Walk(root string, fn func(vfs.FileInfo) error) error {
	return filepath.WalkDir(o.root, func(p string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(o.root, p)
		if err != nil {
			return err
		}
		vpath := "/runs"
		if rel != "." {
			vpath = "/runs/" + filepath.ToSlash(rel)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		return fn(vfs.FileInfo{
			Path:  vpath,
			Name:  d.Name(),
			Size:  info.Size(),
			MTime: float64(info.ModTime().Unix()),
			IsDir: d.IsDir(),
		})
	})
}

func (o osFS) ReadFile(path string) (string, error) {
	data, err := os.ReadFile(o.real(path))
	return string(data), err
}

func (o osFS) Exists(path string) bool {
	_, err := os.Stat(o.real(path))
	return err == nil
}

// harvestOSTree runs one incremental harvest pass over a real directory
// tree and returns the accumulated records. The journal and a record
// snapshot both live inside the tree, so repeated invocations re-read
// only logs that changed: the snapshot warms the in-memory database and
// the journal's watermarks vouch for its rows.
func harvestOSTree(db *statsdb.DB, root string) []*logs.RunRecord {
	if _, err := os.Stat(root); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	snapshot := filepath.Join(root, ".harvest-snapshot.jsonl")
	if _, err := harvest.LoadSnapshot(db, snapshot); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	h, err := harvest.New(osFS{root: root}, db,
		harvest.NewOSJournal(filepath.Join(root, ".harvest-journal.jsonl")),
		harvest.Options{Clock: func() float64 { return float64(time.Now().Unix()) }})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st, err := h.Pass()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("harvest %s: scanned %d, ingested %d, updated %d, unchanged %d, quarantined %d\n",
		root, st.Scanned, st.Ingested, st.Updated, st.WatermarkHits, st.Quarantined)
	for _, q := range h.Quarantine() {
		fmt.Fprintf(os.Stderr, "quarantined: %s (%s)\n", q.Path, q.Error)
	}
	records, err := h.Records()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := harvest.SaveSnapshot(snapshot, records); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return records
}

// flushTelemetry writes the telemetry exports requested on the command
// line (no-op when telemetry is disabled).
func flushTelemetry(tel *telemetry.Telemetry, metricsOut, traceOut string) {
	if err := tel.WriteFiles(metricsOut, traceOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
