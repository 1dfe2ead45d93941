// Package factory runs multi-day production campaigns of the CORIE
// forecast factory: every day each forecast launches on its assigned node
// at its input-constrained start time, executes its simulation and product
// workflows, and writes a run log into its run directory.
//
// The campaign reproduces the dynamics §4.3.1 of the paper observes in a
// year of production logs: work-in-progress carry-over (a run that takes
// longer than a day contends with the next day's run on the same node and
// delays it further — the cascading "hump" of Figure 8), and step changes
// in running time from timestep, mesh, and code-version changes
// (Figures 8 and 9).
package factory

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
	"repro/internal/workflow"
)

// SecondsPerDay is one factory day.
const SecondsPerDay = 86400.0

// NodeSpec declares a compute node for a campaign.
type NodeSpec struct {
	Name  string
	CPUs  int
	Speed float64
}

// DefaultNodes returns the paper's plant: six dedicated dual-CPU forecast
// nodes of equal speed.
func DefaultNodes() []NodeSpec {
	nodes := make([]NodeSpec, 6)
	for i := range nodes {
		nodes[i] = NodeSpec{Name: fmt.Sprintf("fnode%02d", i+1), CPUs: 2, Speed: 1.0}
	}
	return nodes
}

// Config describes a campaign.
type Config struct {
	Nodes []NodeSpec
	// Forecasts maps each initial forecast spec to its assigned node.
	Forecasts []Assignment
	// Events are day-keyed changes applied at midnight before launches.
	Events []Event
	// Year labels run directories and logs (e.g. 2005).
	Year int
	// StartDay is the first day of year simulated (1-based, default 1).
	StartDay int
	// Days is the number of days to simulate.
	Days int
	// DrainDays allows runs still executing after the last day this many
	// extra days to finish before the campaign stops (default 3).
	DrainDays int

	// Telemetry, when non-nil, collects campaign metrics and the span
	// hierarchy campaign → day → run → {simulation, product task}. The
	// campaign installs its engine clock on the tracer.
	Telemetry *telemetry.Telemetry
}

// Assignment binds a forecast spec to a node.
type Assignment struct {
	Spec *forecast.Spec
	Node string
}

// RunResult records one day's execution of one forecast.
type RunResult struct {
	Forecast  string
	Day       int // day of year
	Node      string
	Start     float64 // campaign time, seconds
	End       float64 // campaign time, seconds (NaN if never finished)
	Walltime  float64 // seconds (NaN if never finished)
	Timesteps int
	MeshName  string
	MeshSides int
	Code      forecast.CodeVersion
	Finished  bool
	Dropped   bool
}

// Campaign executes a Config. Create with New, then call Run.
type Campaign struct {
	cfg     Config
	eng     *sim.Engine
	sched   sim.Scope // day/launch timers, labeled "factory" for the kernel profiler
	cluster *cluster.Cluster
	fs      *vfs.FS

	specs  map[string]*forecast.Spec
	assign map[string]string
	order  []string // forecast launch order (stable)

	events      map[int][]Event
	results     []RunResult
	active      map[string]*workflow.Run
	inputDelays map[string]float64 // per-forecast, today only
	prepared    bool
	runLogHooks []func(*logs.RunRecord)

	// Telemetry wiring (all nil when cfg.Telemetry is nil).
	campaignSpan int64
	daySpan      int64
	mActiveRuns  *telemetry.Gauge
	mCarryOver   *telemetry.Gauge
	mWalltimes   *telemetry.Histogram
}

// New validates the config and builds a campaign.
func New(cfg Config) (*Campaign, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = DefaultNodes()
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("factory: campaign needs positive Days, got %d", cfg.Days)
	}
	if cfg.StartDay <= 0 {
		cfg.StartDay = 1
	}
	if cfg.Year == 0 {
		cfg.Year = 2005
	}
	if cfg.DrainDays <= 0 {
		cfg.DrainDays = 3
	}

	eng := sim.NewEngine()
	c := &Campaign{
		cfg:         cfg,
		eng:         eng,
		sched:       eng.Scope("factory"),
		cluster:     cluster.New(eng),
		fs:          vfs.New(eng.Now),
		specs:       make(map[string]*forecast.Spec),
		assign:      make(map[string]string),
		events:      make(map[int][]Event),
		active:      make(map[string]*workflow.Run),
		inputDelays: make(map[string]float64),
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.SetClock(eng.Now)
		reg := tel.Registry()
		eng.Instrument(reg)
		reg.Describe("factory_launches_total", "Forecast runs launched, by forecast.")
		reg.Describe("factory_runs_completed_total", "Forecast runs completed, by forecast.")
		reg.Describe("factory_events_applied_total", "Day-keyed configuration events applied, by event type.")
		reg.Describe("factory_active_runs", "Runs currently executing.")
		reg.Describe("factory_wip_carryover", "Runs still executing at midnight — the WIP carry-over of §4.3.1.")
		reg.Describe("factory_run_walltime_seconds", "Completed run walltimes.")
		c.mActiveRuns = reg.Gauge("factory_active_runs", nil)
		c.mCarryOver = reg.Gauge("factory_wip_carryover", nil)
		c.mWalltimes = reg.Histogram("factory_run_walltime_seconds", nil, nil)
	}
	for _, ns := range cfg.Nodes {
		if c.cluster.Node(ns.Name) != nil {
			return nil, fmt.Errorf("factory: duplicate node %q", ns.Name)
		}
		c.cluster.AddNode(ns.Name, ns.CPUs, ns.Speed)
	}
	for _, a := range cfg.Forecasts {
		if err := a.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("factory: %w", err)
		}
		if _, dup := c.specs[a.Spec.Name]; dup {
			return nil, fmt.Errorf("factory: duplicate forecast %q", a.Spec.Name)
		}
		if c.cluster.Node(a.Node) == nil {
			return nil, fmt.Errorf("factory: forecast %q assigned to unknown node %q", a.Spec.Name, a.Node)
		}
		c.specs[a.Spec.Name] = a.Spec.Clone()
		c.assign[a.Spec.Name] = a.Node
		c.order = append(c.order, a.Spec.Name)
	}
	for _, ev := range cfg.Events {
		d := ev.EventDay()
		if d < cfg.StartDay || d >= cfg.StartDay+cfg.Days {
			return nil, fmt.Errorf("factory: event %q on day %d outside campaign days [%d, %d)",
				ev, d, cfg.StartDay, cfg.StartDay+cfg.Days)
		}
		c.events[d] = append(c.events[d], ev)
	}
	return c, nil
}

// Engine exposes the campaign's simulation engine (read-only use).
func (c *Campaign) Engine() *sim.Engine { return c.eng }

// StartDay returns the first simulated day of year (1-based).
func (c *Campaign) StartDay() int { return c.cfg.StartDay }

// Horizon returns the virtual time at which the campaign stops: midnight
// after the last simulated day plus the drain allowance.
func (c *Campaign) Horizon() float64 {
	lastDay := c.cfg.StartDay + c.cfg.Days - 1
	return c.dayTime(lastDay+1) + float64(c.cfg.DrainDays)*SecondsPerDay
}

// AddRunLogHook registers fn to be invoked with every run record the
// factory writes (both the provisional "running" record at launch and
// the final "completed" one) at the virtual time it is written. This
// models §4.3.2's alternative to periodic crawling: "inserting commands
// into the run scripts to update the database", which keeps statistics
// on currently running forecasts accurate. Observers (the control-room
// monitor, statsdb feeds) attach here without displacing each other;
// hooks run in registration order. Call before the campaign runs.
func (c *Campaign) AddRunLogHook(fn func(*logs.RunRecord)) {
	if fn != nil {
		c.runLogHooks = append(c.runLogHooks, fn)
	}
}

// FS exposes the campaign's filesystem, holding run directories and logs.
func (c *Campaign) FS() *vfs.FS { return c.fs }

// Cluster exposes the campaign's cluster.
func (c *Campaign) Cluster() *cluster.Cluster { return c.cluster }

// Telemetry exposes the campaign's telemetry (nil when not configured).
func (c *Campaign) Telemetry() *telemetry.Telemetry { return c.cfg.Telemetry }

// Spec returns the current spec of a forecast (nil if absent).
func (c *Campaign) Spec(name string) *forecast.Spec { return c.specs[name] }

// Forecasts returns the configured forecast names in configuration order —
// the expected-production roster data-quality rules check against.
func (c *Campaign) Forecasts() []string { return append([]string(nil), c.order...) }

// AddedNodes returns the names of the nodes the campaign's AddNode events
// bring online, in configuration order.
func (c *Campaign) AddedNodes() []string {
	var out []string
	for _, ev := range c.cfg.Events {
		if a, ok := ev.(AddNode); ok {
			out = append(out, a.Node.Name)
		}
	}
	return out
}

// Days returns the number of simulated days in the campaign.
func (c *Campaign) Days() int { return c.cfg.Days }

// dayTime converts a day-of-year to campaign seconds.
func (c *Campaign) dayTime(day int) float64 {
	return float64(day-c.cfg.StartDay) * SecondsPerDay
}

// Run executes the whole campaign and returns all run results sorted by
// (forecast, day).
func (c *Campaign) Run() []RunResult {
	c.Prepare()
	return c.Finish()
}

// Prepare schedules every day's launches on the engine without running
// it. Callers that want to observe the factory mid-campaign (the ForeMan
// monitoring view) call Prepare, drive Engine().RunUntil to the moment of
// interest, take a Snapshot, and then call Finish.
func (c *Campaign) Prepare() {
	if c.prepared {
		return
	}
	c.prepared = true
	if tel := c.cfg.Telemetry; tel != nil {
		tr := tel.Trace()
		c.campaignSpan = tr.Begin("campaign", fmt.Sprintf("campaign-%d", c.cfg.Year), "factory", 0)
		tr.SetArg(c.campaignSpan, "days", fmt.Sprint(c.cfg.Days))
		tr.SetArg(c.campaignSpan, "forecasts", fmt.Sprint(len(c.order)))
	}
	lastDay := c.cfg.StartDay + c.cfg.Days - 1
	for day := c.cfg.StartDay; day <= lastDay; day++ {
		day := day
		c.sched.At(c.dayTime(day), func() { c.startDay(day) })
	}
}

// Finish runs the remainder of the campaign (plus drain days) and returns
// all run results sorted by (forecast, day).
func (c *Campaign) Finish() []RunResult {
	c.Prepare()
	// Let still-running work drain, then stop.
	c.eng.RunUntil(c.Horizon())

	if tel := c.cfg.Telemetry; tel != nil {
		tel.Trace().End(c.daySpan)
		tel.Trace().End(c.campaignSpan)
		// Interrupted runs keep their observed extent in the trace.
		tel.Trace().EndOpen()
		c.mActiveRuns.Set(float64(len(c.active)))
	}

	// Runs still active at the end are recorded as unfinished.
	for i := range c.results {
		r := &c.results[i]
		if !r.Finished && !r.Dropped {
			r.End = math.NaN()
			r.Walltime = math.NaN()
		}
	}
	sort.Slice(c.results, func(i, j int) bool {
		if c.results[i].Forecast != c.results[j].Forecast {
			return c.results[i].Forecast < c.results[j].Forecast
		}
		return c.results[i].Day < c.results[j].Day
	})
	return c.results
}

// startDay applies the day's events, then launches every forecast at its
// start offset (plus any one-day input delay).
func (c *Campaign) startDay(day int) {
	if tel := c.cfg.Telemetry; tel != nil {
		// One span per factory day, midnight to midnight; WIP carry-over
		// is whatever is still executing when the new day starts.
		tel.Trace().End(c.daySpan)
		c.daySpan = tel.Trace().Begin("day", fmt.Sprintf("day-%03d", day), "factory", c.campaignSpan)
		c.mCarryOver.Set(float64(len(c.active)))
	}
	for _, ev := range c.events[day] {
		ev.apply(c)
		c.cfg.Telemetry.Registry().Counter("factory_events_applied_total",
			telemetry.Labels{"type": eventType(ev)}).Inc()
	}
	for _, name := range c.order {
		spec, ok := c.specs[name]
		if !ok {
			continue // removed by an event
		}
		name, spec := name, spec.Clone() // freeze this day's configuration
		c.sched.After(spec.StartOffset+c.inputDelays[name], func() { c.launch(day, name, spec) })
	}
	// Input delays apply to the day they were declared for only.
	clear(c.inputDelays)
}

// eventType names an event's concrete type for metric labels, e.g.
// "SetTimesteps".
func eventType(ev Event) string {
	t := fmt.Sprintf("%T", ev)
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	return t
}

// launch starts one forecast run.
func (c *Campaign) launch(day int, name string, spec *forecast.Spec) {
	nodeName, ok := c.assign[name]
	if !ok {
		return // removed between midnight and launch (possible via events)
	}
	node := c.cluster.Node(nodeName)
	dir := logs.RunDir(name, c.cfg.Year, day)

	idx := len(c.results)
	c.results = append(c.results, RunResult{
		Forecast:  name,
		Day:       day,
		Node:      nodeName,
		Start:     c.eng.Now(),
		End:       math.NaN(),
		Walltime:  math.NaN(),
		Timesteps: spec.Timesteps,
		MeshName:  spec.Mesh.Name,
		MeshSides: spec.Mesh.Sides,
		Code:      spec.Code,
	})

	runKey := fmt.Sprintf("%s/%d", name, day)
	var runSpan int64
	if tel := c.cfg.Telemetry; tel != nil {
		tel.Registry().Counter("factory_launches_total", telemetry.Labels{"forecast": name}).Inc()
		tr := tel.Trace()
		runSpan = tr.Begin("run", runKey, nodeName, c.daySpan)
		tr.SetArg(runSpan, "forecast", name)
		tr.SetArg(runSpan, "day", fmt.Sprint(day))
		tr.SetArg(runSpan, "node", nodeName)
		c.mActiveRuns.Add(1)
	}
	cfg := workflow.Config{
		Spec:        spec,
		Dir:         dir,
		SimNode:     node,
		SimFS:       c.fs,
		ProductNode: node,
		ProductFS:   c.fs,
		Telemetry:   c.cfg.Telemetry,
		Span:        runSpan,
		OnDone: func(r *workflow.Run) {
			delete(c.active, runKey)
			res := &c.results[idx]
			res.End = c.eng.Now()
			res.Walltime = r.Walltime()
			res.Finished = true
			if tel := c.cfg.Telemetry; tel != nil {
				tel.Registry().Counter("factory_runs_completed_total", telemetry.Labels{"forecast": name}).Inc()
				c.mActiveRuns.Add(-1)
				c.mWalltimes.Observe(res.Walltime)
				tel.Trace().End(runSpan)
			}
			c.writeLog(res, logs.StatusCompleted)
		},
	}
	c.active[runKey] = workflow.Start(c.eng, cfg)
	// Write a provisional "running" log, as the paper's crawler would
	// find for an in-flight run (its statistics are incomplete).
	c.writeLog(&c.results[idx], logs.StatusRunning)
}

// writeLog stores the run's log file.
func (c *Campaign) writeLog(r *RunResult, status string) {
	spec := c.specs[r.Forecast]
	region := ""
	products := 0
	if spec != nil {
		region = spec.Region
		products = len(spec.Products)
	}
	rec := &logs.RunRecord{
		Forecast:    r.Forecast,
		Region:      region,
		Year:        c.cfg.Year,
		Day:         r.Day,
		Node:        r.Node,
		CodeVersion: r.Code.Name,
		CodeFactor:  r.Code.CostFactor,
		MeshName:    r.MeshName,
		MeshSides:   r.MeshSides,
		Timesteps:   r.Timesteps,
		Start:       r.Start,
		Status:      status,
		Products:    products,
	}
	if status == logs.StatusCompleted {
		rec.End = r.End
		rec.Walltime = r.Walltime
	}
	if err := logs.Write(c.fs, rec); err != nil {
		panic(fmt.Sprintf("factory: write log: %v", err))
	}
	for _, fn := range c.runLogHooks {
		fn(rec)
	}
}

// Walltimes returns the per-day walltime series for one forecast, as
// plotted in Figures 8 and 9: (day, walltime) for every finished run.
func Walltimes(results []RunResult, name string) (days []int, walltimes []float64) {
	for _, r := range results {
		if r.Forecast == name && r.Finished {
			days = append(days, r.Day)
			walltimes = append(walltimes, r.Walltime)
		}
	}
	return days, walltimes
}
