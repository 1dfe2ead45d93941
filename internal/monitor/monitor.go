// Package monitor is the factory control room: the consumer of the
// telemetry layer that closes the loop between measurement and operator
// action. It tracks every run against its deadline SLO, predicts misses
// before they happen using the ForeMan estimator and observed simulation
// progress, evaluates alert rules (deadline, run-time regression,
// metric thresholds) with a firing→resolved lifecycle, and serves the
// whole picture over HTTP (Prometheus /metrics, a JSON status API, and
// a live HTML dashboard).
//
// The paper's forecasts are perishable (§4.1): a product that lands
// after its deadline has lost most of its value, yet §4.3's statistics
// database only reveals lateness after the fact. The monitor watches
// the factory online instead — the way Tuor et al. (arXiv:1905.09219)
// argue for continuously collected, centrally evaluated run telemetry.
//
// The monitor is driven entirely by simulation-side events (run-log
// writes and periodic engine ticks), so its state is deterministic;
// the HTTP server reads immutable snapshots under a lock and never
// touches the engine, making it safe to serve from wall-clock
// goroutines while the campaign replays.
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/plot"
	"repro/internal/telemetry"
)

// Run states reported by the SLO tracker.
const (
	RunRunning = "running"
	RunOnTime  = "on-time"
	RunLate    = "late"
	RunDropped = "dropped"
)

// RunSLO is one run's standing against its deadline. Times are absolute
// campaign seconds; zero ETA/End mean "not known yet".
type RunSLO struct {
	Forecast string  `json:"forecast"`
	Day      int     `json:"day"`
	Node     string  `json:"node"`
	State    string  `json:"state"`
	Start    float64 `json:"start"`
	// PlannedStart is the launch the plan called for: the day's start plus
	// the spec's offset, as of the run's first record (its Start when the
	// spec is unknown). Forensics measures start delay against it.
	PlannedStart float64 `json:"planned_start"`
	Deadline     float64 `json:"deadline"`
	// ETA is the current completion prediction: the estimator's figure at
	// launch, refined from simulation progress while the run executes,
	// and the actual end once finished.
	ETA float64 `json:"eta,omitempty"`
	// LaunchETA preserves the launch-time prediction after ETA is refined
	// or overwritten by the actual end — the plan the drift rule compares
	// reality against.
	LaunchETA float64 `json:"launch_eta,omitempty"`
	End       float64 `json:"end,omitempty"`
	Walltime  float64 `json:"walltime,omitempty"`
	// Budget is the lateness budget remaining: deadline minus ETA.
	// Negative means the run is (predicted) late.
	Budget float64 `json:"budget"`
	// Progress is the simulation fraction completed (running runs).
	Progress float64 `json:"progress"`
	// PredictedMiss is set while the tracker expects the deadline to be
	// missed (and stays set if it actually was).
	PredictedMiss bool `json:"predicted_miss,omitempty"`
}

// NodeStatus is one node's cached utilization for the status API.
type NodeStatus struct {
	Name        string  `json:"name"`
	CPUs        int     `json:"cpus"`
	Utilization float64 `json:"utilization"`
}

// Options configure a Monitor. The zero value is the standard control
// room: the deadline and run-time regression rules always apply, and an
// attached monitor also checks for missing runs; the fields below add
// rules. Deadlines, node speeds and the expected roster come from the
// attached campaign, and run history from the records it writes.
type Options struct {
	// Thresholds are metric threshold rules evaluated every tick.
	Thresholds []ThresholdRule
	// Staleness rules watch timestamp gauges (harvest heartbeat) for
	// silence; Rates watch counter growth (quarantine spikes). Both are
	// evaluated every tick, after Thresholds.
	Staleness []StalenessRule
	Rates     []RateRule
	// Drift fires when a completed run lands far from its launch-time
	// prediction — the plan-vs-actual feedback rule. The zero value
	// (RelAbove 0) disables it.
	Drift DriftRule
	// Blame fires when the dominant lateness component (from a forensics
	// pass, fed via ObserveBlame) changes between days. The zero value
	// (MinLateness 0) disables it.
	Blame BlameShiftRule
	// OutOfControl fires while an SPC series (fed via ObserveControl) is
	// out of control; Changepoint fires when the SPC layer detects a
	// level shift (fed via ObserveChangepoint). Zero values disable both.
	OutOfControl OutOfControlRule
	Changepoint  ChangepointRule
}

// DefaultOptions returns the standard control-room configuration.
func DefaultOptions() Options {
	return Options{}
}

// Severities of the built-in rules: the deadline rule's two stages
// (predicted, then actual miss) and a missing expected run.
const (
	predictedSeverity  = SevWarning
	missSeverity       = SevCritical
	missingRunSeverity = SevCritical
)

// Monitor is the control room's state: the SLO tracker, the alert
// engine, and cached node utilization. All exported methods are safe for
// concurrent use; the HTTP server reads while the simulation writes.
type Monitor struct {
	mu   sync.Mutex
	opts Options
	reg  *telemetry.Registry

	// startDay anchors day-of-year to campaign seconds (1 unless a
	// campaign is attached). specOf resolves a forecast's current spec
	// for deadline lookup and history-less estimates; Attach wires it to
	// Campaign.Spec, and sets plant, the node speeds the estimator
	// scales by, from the campaign's cluster.
	startDay int
	specOf   func(name string) *forecast.Spec
	plant    []core.NodeInfo
	// expected is the missing-run rule's roster: expected[i] lists the
	// forecasts that must produce a run on day startDay+i, as the tick
	// records it on that day. The first settled past days have a record
	// for every expected run; records are never forgotten, so the check
	// skips them. An unattached monitor expects nothing.
	expected [][]string
	settled  int

	now  float64
	done bool

	runs  map[string]*RunSLO // key "forecast/day"
	order []string           // insertion order of runs

	// Completed-run history per forecast (walltimes, oldest first) for
	// regression baselines, plus the full records for the estimator.
	walltimes map[string][]float64
	records   []*logs.RunRecord
	est       *core.Estimator
	estDirty  bool

	nodes []NodeStatus

	book  *alertBook
	rates map[string]*rateState // per-RateRule counter state between ticks
	blame blameState            // last qualifying day seen by ObserveBlame

	mLate      *telemetry.Counter
	mPredicted *telemetry.Counter
	mRunning   *telemetry.Gauge
}

// New builds a Monitor. reg (may be nil) receives the monitor's own
// metrics: alerts firing/fired, deadline misses, predicted misses.
func New(opts Options, reg *telemetry.Registry) *Monitor {
	reg.Describe("monitor_deadline_misses_total", "Runs that completed (or are executing) past their deadline.")
	reg.Describe("monitor_predicted_misses_total", "Deadline misses predicted before they occurred.")
	reg.Describe("monitor_runs_tracked", "Runs currently tracked as executing.")
	m := &Monitor{
		opts:       opts,
		reg:        reg,
		startDay:   1,
		runs:       make(map[string]*RunSLO),
		walltimes:  make(map[string][]float64),
		rates:      make(map[string]*rateState),
		book:       newAlertBook(reg),
		mLate:      reg.Counter("monitor_deadline_misses_total", nil),
		mPredicted: reg.Counter("monitor_predicted_misses_total", nil),
		mRunning:   reg.Gauge("monitor_runs_tracked", nil),
	}
	return m
}

// tickEvery is the rule-evaluation interval in sim seconds when attached
// to a campaign: 15 sim-minutes.
const tickEvery = 900.0

// Attach wires the monitor to a campaign: it subscribes to run-log
// writes, reads specs and node speeds from the campaign, and schedules
// the periodic rule-evaluation tick on the campaign's engine. Call
// before the campaign runs.
func (m *Monitor) Attach(c *factory.Campaign) {
	m.mu.Lock()
	m.startDay = c.StartDay()
	m.specOf = c.Spec
	m.expected = make([][]string, c.Days())
	m.settled = 0
	m.plant = nil
	for _, n := range c.Cluster().Nodes() {
		m.plant = append(m.plant, core.NodeInfo{Name: n.Name(), CPUs: n.CPUs(), Speed: n.Speed()})
	}
	m.estDirty = true
	m.mu.Unlock()

	c.AddRunLogHook(m.ObserveRecord)

	eng := c.Engine()
	sched := eng.Scope("monitor")
	horizon := c.Horizon()
	interval := tickEvery
	rosterDay := 0
	var tick func()
	tick = func() {
		// The first tick of each day records that day's roster. A tick at
		// midnight runs after the campaign's day start (scheduled earlier
		// for the same instant), so the day's add and remove events have
		// applied.
		if day := c.StartDay() + int(eng.Now()/factory.SecondsPerDay); day != rosterDay {
			rosterDay = day
			m.expectOn(day, c.Forecasts())
		}
		// The rules read only the clock and the executing runs, not the
		// results and launches a full Snapshot copies and sorts.
		var nodes []NodeStatus
		for _, n := range c.Cluster().Nodes() {
			nodes = append(nodes, NodeStatus{Name: n.Name(), CPUs: n.CPUs(), Utilization: n.Utilization()})
		}
		m.ObserveSnapshot(factory.Snapshot{Now: eng.Now(), Active: c.Active()}, nodes)
		if eng.Now()+interval <= horizon {
			sched.After(interval, tick)
		}
	}
	sched.After(interval, tick)
}

// expectOn records the forecasts that must produce a run on day.
func (m *Monitor) expectOn(day int, forecasts []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := day - m.startDay; i >= 0 && i < len(m.expected) {
		m.expected[i] = forecasts
	}
}

// runKey builds the tracker key for a record.
func runKey(forecastName string, day int) string {
	return fmt.Sprintf("%s/%d", forecastName, day)
}

// dayStart converts a day of year to campaign seconds.
func (m *Monitor) dayStart(day int) float64 {
	return float64(day-m.startDay) * factory.SecondsPerDay
}

// deadlineFor resolves a forecast's absolute deadline for a day: the
// spec's, or the end of the day when there is none.
func (m *Monitor) deadlineFor(forecastName string, day int) float64 {
	rel := factory.SecondsPerDay
	if m.specOf != nil {
		if s := m.specOf(forecastName); s != nil && s.Deadline > 0 {
			rel = s.Deadline
		}
	}
	return m.dayStart(day) + rel
}

// plannedStart resolves a run's planned launch from its first record.
func (m *Monitor) plannedStart(rec *logs.RunRecord) float64 {
	if m.specOf != nil {
		if s := m.specOf(rec.Forecast); s != nil {
			return m.dayStart(rec.Day) + s.StartOffset
		}
	}
	return rec.Start
}

// estimator returns the (lazily rebuilt) run-time estimator.
func (m *Monitor) estimator() *core.Estimator {
	if m.estDirty || m.est == nil {
		m.est = core.NewEstimator(m.records, m.plant)
		m.estDirty = false
	}
	return m.est
}

// launchETA predicts a freshly launched run's completion time: the
// estimator scaled from history when available, the spec work model
// otherwise, zero (unknown) as a last resort.
func (m *Monitor) launchETA(rec *logs.RunRecord) float64 {
	est, err := m.estimator().Estimate(core.Request{
		Forecast:  rec.Forecast,
		Timesteps: rec.Timesteps,
		MeshSides: rec.MeshSides,
		Node:      rec.Node,
		Adjust:    1,
	})
	if err == nil {
		return rec.Start + est.Seconds
	}
	if m.specOf != nil {
		if spec := m.specOf(rec.Forecast); spec != nil {
			for _, n := range m.plant {
				if n.Name == rec.Node && n.Speed > 0 {
					return rec.Start + core.EstimateFromSpec(spec, n).Seconds
				}
			}
		}
	}
	return 0
}

// ObserveRecord feeds one run-log write into the tracker — the factory
// calls this (via AddRunLogHook) at the virtual instant each record is
// written, mirroring §4.3.2's in-script database updates.
func (m *Monitor) ObserveRecord(rec *logs.RunRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()

	key := runKey(rec.Forecast, rec.Day)
	switch rec.Status {
	case logs.StatusRunning:
		if rec.Start > m.now {
			m.now = rec.Start
		}
		r, ok := m.runs[key]
		if !ok {
			r = &RunSLO{Forecast: rec.Forecast, Day: rec.Day, PlannedStart: m.plannedStart(rec)}
			m.runs[key] = r
			m.order = append(m.order, key)
		}
		r.Node = rec.Node
		r.State = RunRunning
		r.Start = rec.Start
		r.Deadline = m.deadlineFor(rec.Forecast, rec.Day)
		r.ETA = m.launchETA(rec)
		r.LaunchETA = r.ETA
		if r.ETA > 0 {
			r.Budget = r.Deadline - r.ETA
		} else {
			r.Budget = r.Deadline - m.now
		}
		m.mRunning.Add(1)
		m.checkDeadline(r)

	case logs.StatusCompleted:
		if rec.End > m.now {
			m.now = rec.End
		}
		r, ok := m.runs[key]
		if !ok {
			// Standalone feeds may deliver completions without a prior
			// launch record; synthesize the entry.
			r = &RunSLO{Forecast: rec.Forecast, Day: rec.Day, Start: rec.Start,
				PlannedStart: m.plannedStart(rec), Deadline: m.deadlineFor(rec.Forecast, rec.Day)}
			m.runs[key] = r
			m.order = append(m.order, key)
		} else {
			m.mRunning.Add(-1)
		}
		r.Node = rec.Node
		r.End = rec.End
		r.ETA = rec.End
		r.Walltime = rec.Walltime
		r.Progress = 1
		r.Budget = r.Deadline - rec.End
		if rec.End > r.Deadline {
			r.State = RunLate
			m.fireMiss(r, false)
		} else {
			r.State = RunOnTime
			r.PredictedMiss = false
			// An on-time landing retires any predicted-miss alert.
			m.book.resolve(m.now, "deadline:"+key)
		}
		m.checkRegression(rec)
		m.checkDrift(r)
		m.records = append(m.records, rec)
		m.walltimes[rec.Forecast] = append(m.walltimes[rec.Forecast], rec.Walltime)
		m.estDirty = true

	case logs.StatusDropped:
		r, ok := m.runs[key]
		if !ok {
			r = &RunSLO{Forecast: rec.Forecast, Day: rec.Day, Start: rec.Start,
				PlannedStart: m.plannedStart(rec), Deadline: m.deadlineFor(rec.Forecast, rec.Day)}
			m.runs[key] = r
			m.order = append(m.order, key)
		} else if r.State == RunRunning {
			m.mRunning.Add(-1)
		}
		r.Node = rec.Node
		r.State = RunDropped
		m.book.fire(m.now, Alert{
			Rule: "run_dropped", Key: "dropped:" + key, Severity: SevWarning,
			Forecast: rec.Forecast, Day: rec.Day, Node: rec.Node,
			Message: fmt.Sprintf("%s day %d dropped (capacity short)", rec.Forecast, rec.Day),
		})
	}
}

// ObserveSnapshot ingests a factory snapshot (taken on the engine's
// goroutine): it advances the clock, refreshes progress-based ETAs for
// executing runs, caches node utilization, and evaluates all rules. Only
// the snapshot's Now and Active are read.
func (m *Monitor) ObserveSnapshot(snap factory.Snapshot, nodes []NodeStatus) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if snap.Now > m.now {
		m.now = snap.Now
	}
	if nodes != nil {
		m.nodes = nodes
	}
	for _, a := range snap.Active {
		r := m.runs[runKey(a.Forecast, a.Day)]
		if r == nil || r.State != RunRunning {
			continue
		}
		r.Progress = a.SimProgress
		// Linear extrapolation from simulation progress, as the ForeMan
		// monitor view draws it; keep the launch-time estimate until
		// there is enough progress signal to beat it.
		if a.SimProgress > 0.02 {
			eta := a.Started + (snap.Now-a.Started)/a.SimProgress
			if eta < snap.Now {
				eta = snap.Now
			}
			r.ETA = eta
			r.Budget = r.Deadline - eta
		}
	}
	m.evaluateLocked()
}

// evaluateLocked runs deadline and threshold rules at the current clock.
func (m *Monitor) evaluateLocked() {
	for _, key := range m.order {
		if r := m.runs[key]; r.State == RunRunning {
			m.checkDeadline(r)
		}
	}
	for _, rule := range m.opts.Thresholds {
		key := "threshold:" + rule.Name
		v, ok := m.reg.Value(rule.Metric, rule.Labels)
		if ok && v > rule.Above {
			m.book.fire(m.now, Alert{
				Rule: rule.Name, Key: key, Severity: rule.Severity,
				Value: v, Threshold: rule.Above,
				Message: fmt.Sprintf("%s: %s = %g above %g", rule.Name, rule.Metric, v, rule.Above),
			})
		} else {
			m.book.resolve(m.now, key)
		}
	}
	m.checkStaleness()
	m.checkRates()
	m.checkMissingRuns()
}

// checkStaleness fires staleness rules whose timestamp gauge has gone
// quiet for longer than MaxAge.
func (m *Monitor) checkStaleness() {
	for _, rule := range m.opts.Staleness {
		key := "stale:" + rule.Name
		v, ok := m.reg.Value(rule.Metric, nil)
		if age := m.now - v; ok && age > rule.MaxAge {
			m.book.fire(m.now, Alert{
				Rule: rule.Name, Key: key, Severity: rule.Severity,
				Value: age, Threshold: rule.MaxAge,
				Message: fmt.Sprintf("%s: %s last updated %s ago (limit %s)",
					rule.Name, rule.Metric, plot.HHMM(age), plot.HHMM(rule.MaxAge)),
			})
		} else {
			m.book.resolve(m.now, key)
		}
	}
}

// checkRates differentiates rate-rule counters between ticks and fires
// while the growth rate exceeds the per-hour bound.
func (m *Monitor) checkRates() {
	for _, rule := range m.opts.Rates {
		key := "rate:" + rule.Name
		v, ok := m.reg.Value(rule.Metric, nil)
		if !ok {
			continue
		}
		st := m.rates[key]
		if st == nil {
			st = &rateState{}
			m.rates[key] = st
		}
		if st.seen && m.now > st.at {
			perHour := (v - st.value) / (m.now - st.at) * 3600
			if perHour > rule.PerHourAbove {
				m.book.fire(m.now, Alert{
					Rule: rule.Name, Key: key, Severity: rule.Severity,
					Value: perHour, Threshold: rule.PerHourAbove,
					Message: fmt.Sprintf("%s: %s growing %.1f/h, above %.1f/h",
						rule.Name, rule.Metric, perHour, rule.PerHourAbove),
				})
			} else {
				m.book.resolve(m.now, key)
			}
		}
		st.value, st.at, st.seen = v, m.now, true
	}
}

// checkMissingRuns flags expected forecast runs that never produced any
// record — not even a launch or a drop — once their day's deadline has
// passed. A record appearing later (a delayed harvest, a
// backfill) resolves the alert.
func (m *Monitor) checkMissingRuns() {
	curDay := m.startDay + int(m.now/factory.SecondsPerDay)
	lastDay := m.startDay + len(m.expected) - 1
	if curDay < lastDay {
		lastDay = curDay
	}
	for day := m.startDay + m.settled; day <= lastDay; day++ {
		complete := true
		for _, f := range m.expected[day-m.startDay] {
			key := runKey(f, day)
			if _, ok := m.runs[key]; ok {
				m.book.resolve(m.now, "missing_run:"+key)
				continue
			}
			complete = false
			if m.now > m.deadlineFor(f, day) {
				m.book.fire(m.now, Alert{
					Rule: "missing_run", Key: "missing_run:" + key,
					Severity: missingRunSeverity, Forecast: f, Day: day,
					Message: fmt.Sprintf("%s day %d: no run record past its deadline — expected production missing", f, day),
				})
			}
		}
		if complete && day < curDay && day == m.startDay+m.settled {
			m.settled++
		}
	}
}

// checkDeadline evaluates the deadline SLO for a running run: an actual
// miss once the clock passes the deadline, a predicted miss as soon as
// the ETA does.
func (m *Monitor) checkDeadline(r *RunSLO) {
	key := runKey(r.Forecast, r.Day)
	switch {
	case m.now > r.Deadline:
		// The run is executing past its deadline — the miss is real even
		// though the run hasn't finished.
		m.fireMiss(r, false)
	case r.ETA > r.Deadline:
		if !r.PredictedMiss {
			r.PredictedMiss = true
			m.mPredicted.Inc()
		}
		m.book.fire(m.now, Alert{
			Rule: "deadline", Key: "deadline:" + key, Severity: predictedSeverity,
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Value: r.ETA, Threshold: r.Deadline, Predicted: true,
			Message: fmt.Sprintf("%s day %d predicted to finish %s after its deadline",
				r.Forecast, r.Day, plot.HHMM(r.ETA-r.Deadline)),
		})
	case r.PredictedMiss:
		// The ETA recovered (faster progress than estimated): resolve.
		r.PredictedMiss = false
		m.book.resolve(m.now, "deadline:"+key)
	}
}

// fireMiss raises (or escalates) the actual deadline-miss alert.
func (m *Monitor) fireMiss(r *RunSLO, predicted bool) {
	key := runKey(r.Forecast, r.Day)
	over := m.now - r.Deadline
	if r.End > 0 {
		over = r.End - r.Deadline
	}
	prior := m.book.firing["deadline:"+key]
	escalating := prior == nil || prior.Predicted
	m.book.fire(m.now, Alert{
		Rule: "deadline", Key: "deadline:" + key, Severity: missSeverity,
		Forecast: r.Forecast, Day: r.Day, Node: r.Node,
		Value: m.now, Threshold: r.Deadline, Predicted: predicted,
		Message: fmt.Sprintf("%s day %d missed its deadline by %s", r.Forecast, r.Day, plot.HHMM(over)),
	})
	if escalating {
		m.mLate.Inc()
	}
}

// checkRegression compares a completed run against the trailing median
// of its forecast's previous runs.
func (m *Monitor) checkRegression(rec *logs.RunRecord) {
	median, ok := trailingMedian(m.walltimes[rec.Forecast])
	if !ok {
		return
	}
	key := "regression:" + rec.Forecast
	bound := regressionRatio * median
	if rec.Walltime > bound {
		m.book.fire(m.now, Alert{
			Rule: "runtime_regression", Key: key, Severity: SevWarning,
			Forecast: rec.Forecast, Day: rec.Day, Node: rec.Node,
			Value: rec.Walltime, Threshold: bound,
			Message: fmt.Sprintf("%s day %d ran %.0fs, %.1f× the trailing %d-run median %.0fs",
				rec.Forecast, rec.Day, rec.Walltime, rec.Walltime/median, regressionWindow, median),
		})
	} else {
		m.book.resolve(m.now, key)
	}
}

// Finalize marks the campaign over at the given virtual time. Runs still
// tracked as executing are counted as late if past deadline; firing
// alerts remain firing (the operator resolves them by reading the report).
func (m *Monitor) Finalize(now float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now > m.now {
		m.now = now
	}
	m.done = true
	m.evaluateLocked()
}

// Alerts returns the full alert history, oldest first.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.book.snapshotAll()
}

// FiringAlerts returns the currently firing alerts, oldest first.
func (m *Monitor) FiringAlerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.book.snapshotFiring()
}

// Summary aggregates the tracker's counts for the status API.
type Summary struct {
	Running       int `json:"running"`
	OnTime        int `json:"on_time"`
	Late          int `json:"late"`
	Dropped       int `json:"dropped"`
	PredictedLate int `json:"predicted_late"`
	AlertsFiring  int `json:"alerts_firing"`
	// Attainment is on-time completions over all completions (1 when
	// nothing has completed yet).
	Attainment float64 `json:"attainment"`
}

// Status is the control room's full picture at one instant.
type Status struct {
	Now     float64      `json:"now"`
	Day     int          `json:"day"`
	Done    bool         `json:"done"`
	Summary Summary      `json:"summary"`
	Runs    []RunSLO     `json:"runs"`
	Nodes   []NodeStatus `json:"nodes"`
	Firing  []Alert      `json:"firing"`
}

// Status snapshots the monitor.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Now:  m.now,
		Day:  m.startDay + int(m.now/factory.SecondsPerDay),
		Done: m.done,
	}
	st.Runs = make([]RunSLO, 0, len(m.order))
	for _, key := range m.order {
		r := *m.runs[key]
		st.Runs = append(st.Runs, r)
		switch r.State {
		case RunRunning:
			st.Summary.Running++
			if r.PredictedMiss {
				st.Summary.PredictedLate++
			}
		case RunOnTime:
			st.Summary.OnTime++
		case RunLate:
			st.Summary.Late++
		case RunDropped:
			st.Summary.Dropped++
		}
	}
	sort.Slice(st.Runs, func(i, j int) bool {
		if st.Runs[i].Day != st.Runs[j].Day {
			return st.Runs[i].Day > st.Runs[j].Day
		}
		return st.Runs[i].Forecast < st.Runs[j].Forecast
	})
	if done := st.Summary.OnTime + st.Summary.Late; done > 0 {
		st.Summary.Attainment = float64(st.Summary.OnTime) / float64(done)
	} else {
		st.Summary.Attainment = 1
	}
	st.Nodes = append([]NodeStatus(nil), m.nodes...)
	st.Firing = m.book.snapshotFiring()
	st.Summary.AlertsFiring = len(st.Firing)
	return st
}

// ForecastSLO is one forecast's aggregate standing in the SLO report.
type ForecastSLO struct {
	Forecast      string  `json:"forecast"`
	Runs          int     `json:"runs"`
	OnTime        int     `json:"on_time"`
	Late          int     `json:"late"`
	Dropped       int     `json:"dropped"`
	Attainment    float64 `json:"attainment"`
	WorstLateness float64 `json:"worst_lateness"` // seconds past deadline
	MeanBudget    float64 `json:"mean_budget"`    // mean (deadline − end)
}

// SLOReport aggregates deadline attainment per forecast and overall.
type SLOReport struct {
	Forecasts []ForecastSLO `json:"forecasts"`
	Total     ForecastSLO   `json:"total"`
}

// Report computes the SLO report over everything observed so far.
func (m *Monitor) Report() SLOReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg := make(map[string]*ForecastSLO)
	var names []string
	budgets := make(map[string]float64)
	get := func(name string) *ForecastSLO {
		f, ok := agg[name]
		if !ok {
			f = &ForecastSLO{Forecast: name}
			agg[name] = f
			names = append(names, name)
		}
		return f
	}
	for _, key := range m.order {
		r := m.runs[key]
		f := get(r.Forecast)
		switch r.State {
		case RunOnTime, RunLate:
			f.Runs++
			budgets[r.Forecast] += r.Deadline - r.End
			if r.State == RunLate {
				f.Late++
				if over := r.End - r.Deadline; over > f.WorstLateness {
					f.WorstLateness = over
				}
			} else {
				f.OnTime++
			}
		case RunDropped:
			f.Runs++
			f.Dropped++
		}
	}
	sort.Strings(names)
	rep := SLOReport{Total: ForecastSLO{Forecast: "TOTAL"}}
	var totalBudget float64
	for _, n := range names {
		f := agg[n]
		if done := f.OnTime + f.Late; done > 0 {
			f.Attainment = float64(f.OnTime) / float64(done)
			f.MeanBudget = budgets[n] / float64(done)
		} else {
			f.Attainment = 1
		}
		rep.Forecasts = append(rep.Forecasts, *f)
		rep.Total.Runs += f.Runs
		rep.Total.OnTime += f.OnTime
		rep.Total.Late += f.Late
		rep.Total.Dropped += f.Dropped
		totalBudget += budgets[n]
		if f.WorstLateness > rep.Total.WorstLateness {
			rep.Total.WorstLateness = f.WorstLateness
		}
	}
	if done := rep.Total.OnTime + rep.Total.Late; done > 0 {
		rep.Total.Attainment = float64(rep.Total.OnTime) / float64(done)
		rep.Total.MeanBudget = totalBudget / float64(done)
	} else {
		rep.Total.Attainment = 1
	}
	return rep
}

// String renders the report as the foreman CLI's SLO table.
func (r SLOReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %5s %7s %5s %7s %10s %12s %12s\n",
		"forecast", "runs", "on-time", "late", "dropped", "attainment", "worst-late", "mean-budget")
	row := func(f ForecastSLO) {
		fmt.Fprintf(&b, "%-26s %5d %7d %5d %7d %9.1f%% %12s %12s\n",
			f.Forecast, f.Runs, f.OnTime, f.Late, f.Dropped,
			100*f.Attainment, plot.HHMM(f.WorstLateness), plot.HHMM(f.MeanBudget))
	}
	for _, f := range r.Forecasts {
		row(f)
	}
	row(r.Total)
	return b.String()
}
