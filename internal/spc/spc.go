// Package spc is the statistical-process-control observatory over the
// factory's vital signs — the "control-chart-style analysis of run-time
// series" §4.3 of the paper sketches, run online instead of post-hoc.
// Every series the earlier observability layers measure (per-forecast run
// time, estimate error, plan-vs-actual drift, daily lateness, per-node
// mean CPU share) streams through one engine that keeps, per series:
//
//   - a Shewhart individuals chart (center ± K·sigma, sigma estimated
//     from the mean moving range, the standard individuals/moving-range
//     pairing) with the Western Electric run rules,
//   - an EWMA chart with time-varying limits (sensitive to small
//     sustained shifts the Shewhart limits miss),
//   - a two-sided standardized CUSUM whose decision doubles as a
//     changepoint detector: when an arm crosses the decision interval the
//     shift is dated to the point where that arm last sat at zero — the
//     paper's user-supplied code-version factor becomes a detected
//     changepoint — and the series re-baselines itself from the
//     post-change points.
//
// A series is out of control while its latest judged point violates any
// rule and back in control at the next clean point, the same
// firing→resolved shape the monitor's alert book keeps. Events stream to
// a callback seam (the replan-trigger hook uncertainty-aware planning
// will consume); the full state persists in the statsdb tables
// control_points and changepoints, so `foreman -spc`, /api/spc, and the
// dashboard panel all render one ReadReport.
package spc

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Series kinds — the factory vital signs under control. Subject is the
// forecast name for run_time/estimate_error/drift, the node name for
// node_share, and SubjectFactory for the aggregate daily-lateness series.
const (
	KindRunTime       = "run_time"       // completed-run walltime, seconds
	KindEstimateError = "estimate_error" // actual minus estimated walltime, seconds
	KindDrift         = "drift"          // actual minus predicted completion, seconds
	KindLateness      = "lateness"       // summed positive lateness per day, seconds
	KindNodeShare     = "node_share"     // per-node daily mean CPU share in [0, 1]
)

// SubjectFactory is the subject of factory-wide series (daily lateness).
const SubjectFactory = "factory"

// Kinds lists the series kinds in canonical report order.
func Kinds() []string {
	return []string{KindRunTime, KindEstimateError, KindDrift, KindLateness, KindNodeShare}
}

// Rule names, as recorded on Point.Rules and persisted in the rules
// column. we1–we4 are the Western Electric run rules on the Shewhart
// chart; ewma and cusum are the auxiliary charts' own signals.
const (
	RuleWE1   = "we1"   // one point beyond K sigma
	RuleWE2   = "we2"   // two of three consecutive beyond 2 sigma, same side
	RuleWE3   = "we3"   // four of five consecutive beyond 1 sigma, same side
	RuleWE4   = "we4"   // eight consecutive on the same side of center
	RuleEWMA  = "ewma"  // EWMA statistic beyond its control limits
	RuleCUSUM = "cusum" // CUSUM decision interval crossed (level shift)
)

// RuleSet is the set of rules a point violated, stored as a bit set.
// Points keep their verdicts this way — not as a []string — so the
// accumulated per-series point arrays contain no pointers: the GC
// classifies the backing arrays as noscan and the chart history, which
// only grows over a campaign, costs nothing on every mark pass. The set
// marshals to and from the same JSON string array the dashboard and
// /api/spc clients always saw.
type RuleSet uint8

const (
	ruleBitWE1 RuleSet = 1 << iota
	ruleBitWE2
	ruleBitWE3
	ruleBitWE4
	ruleBitEWMA
	ruleBitCUSUM
)

// ruleBitNames maps bits to names in canonical report order.
var ruleBitNames = []struct {
	bit  RuleSet
	name string
}{
	{ruleBitWE1, RuleWE1},
	{ruleBitWE2, RuleWE2},
	{ruleBitWE3, RuleWE3},
	{ruleBitWE4, RuleWE4},
	{ruleBitEWMA, RuleEWMA},
	{ruleBitCUSUM, RuleCUSUM},
}

// ParseRuleSet builds a set from rule names; unknown names are ignored.
func ParseRuleSet(names ...string) RuleSet {
	var r RuleSet
	for _, n := range names {
		for _, b := range ruleBitNames {
			if b.name == n {
				r |= b.bit
			}
		}
	}
	return r
}

// Names returns the violated rule names in canonical order, nil when
// the set is empty.
func (r RuleSet) Names() []string {
	if r == 0 {
		return nil
	}
	names := make([]string, 0, len(ruleBitNames))
	for _, b := range ruleBitNames {
		if r&b.bit != 0 {
			names = append(names, b.name)
		}
	}
	return names
}

// String renders the set comma-joined ("" when empty).
func (r RuleSet) String() string { return strings.Join(r.Names(), ",") }

// MarshalText writes the comma-joined form — the one the statsdb rules
// column stores.
func (r RuleSet) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses the comma-joined form; unknown names are ignored.
func (r *RuleSet) UnmarshalText(text []byte) error {
	*r = ParseRuleSet(strings.Split(string(text), ",")...)
	return nil
}

// MarshalJSON writes the set as a string array, the wire shape Rules
// had when it was a []string.
func (r RuleSet) MarshalJSON() ([]byte, error) {
	names := r.Names()
	if names == nil {
		names = []string{}
	}
	return json.Marshal(names)
}

// UnmarshalJSON accepts the string-array form.
func (r *RuleSet) UnmarshalJSON(data []byte) error {
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return err
	}
	*r = ParseRuleSet(names...)
	return nil
}

// Params tune the control charts. The zero value is unusable; start from
// DefaultParams. Sigma-denominated knobs are in units of the series'
// estimated sigma.
type Params struct {
	// SigmaK places the Shewhart individuals limits (default 3).
	SigmaK float64
	// EWMALambda is the EWMA smoothing weight (default 0.2) and EWMAK its
	// limit multiplier (default 3); limits are time-varying, so the chart
	// is exact from the first judged point.
	EWMALambda float64
	EWMAK      float64
	// CUSUMSlack is the CUSUM reference value k (default 0.5: tuned for
	// one-sigma shifts) and CUSUMDecision the decision interval h
	// (default 5).
	CUSUMSlack    float64
	CUSUMDecision float64
	// CUSUMClamp bounds each standardized deviation fed to the CUSUM
	// (default 4): one wild outlier — a node failure day — cannot cross
	// the decision interval alone, a sustained shift still accumulates.
	CUSUMClamp float64
	// MinShiftRun is the minimum number of consecutive points an arm must
	// span before a decision is declared a changepoint (default 5), the
	// second guard separating level shifts from transients. The last
	// MinShiftRun points must also all sit beyond the slack on the arm's
	// side: a transient excursion — a failed node's two- or three-day
	// backlog — banks enough in the arm to cross the decision interval,
	// but once the series reverts the recent evidence goes quiet and no
	// changepoint is declared while the arm drains.
	MinShiftRun int
	// MinBaseline is how many points a series collects before freezing
	// its first baseline and judging further points (default 8). Seeded
	// baselines (SeedFits, SeedFromDB) skip the learning phase.
	MinBaseline int
}

// DefaultParams returns the standard chart tuning.
func DefaultParams() Params {
	return Params{
		SigmaK:        3,
		EWMALambda:    0.2,
		EWMAK:         3,
		CUSUMSlack:    0.5,
		CUSUMDecision: 5,
		CUSUMClamp:    4,
		MinShiftRun:   5,
		MinBaseline:   8,
	}
}

// normalize fills unset (zero) parameters with their defaults.
func (p Params) normalize() Params {
	d := DefaultParams()
	if p.SigmaK <= 0 {
		p.SigmaK = d.SigmaK
	}
	if p.EWMALambda <= 0 || p.EWMALambda > 1 {
		p.EWMALambda = d.EWMALambda
	}
	if p.EWMAK <= 0 {
		p.EWMAK = d.EWMAK
	}
	if p.CUSUMSlack <= 0 {
		p.CUSUMSlack = d.CUSUMSlack
	}
	if p.CUSUMDecision <= 0 {
		p.CUSUMDecision = d.CUSUMDecision
	}
	if p.CUSUMClamp <= 0 {
		p.CUSUMClamp = d.CUSUMClamp
	}
	if p.MinShiftRun <= 0 {
		p.MinShiftRun = d.MinShiftRun
	}
	if p.MinBaseline < 2 {
		p.MinBaseline = d.MinBaseline
	}
	return p
}

// d2 is the control-chart constant E[MR]/sigma for moving ranges of two
// consecutive points; sigma-hat = mean moving range / d2.
const d2 = 1.128

// Point is one observation as judged by its series' charts at the time
// it arrived. Learning points predate the baseline and carry no verdict.
type Point struct {
	Seq   int     `json:"seq" db:"seq"`
	Day   int     `json:"day" db:"day"`
	T     float64 `json:"t" db:"t"`
	Value float64 `json:"value" db:"value"`

	Center float64 `json:"center" db:"center"`
	Sigma  float64 `json:"sigma" db:"sigma"`
	UCL    float64 `json:"ucl" db:"ucl"`
	LCL    float64 `json:"lcl" db:"lcl"`
	Z      float64 `json:"z" db:"z"`

	EWMA      float64 `json:"ewma" db:"ewma"`
	EWMAUpper float64 `json:"ewma_upper" db:"ewma_upper"`
	EWMALower float64 `json:"ewma_lower" db:"ewma_lower"`
	CusumPos  float64 `json:"cusum_pos" db:"cusum_pos"`
	CusumNeg  float64 `json:"cusum_neg" db:"cusum_neg"`

	// Rules is the set of violated rules (empty = clean); Out mirrors
	// !Rules.Empty(). Learning marks baseline-collection points.
	Rules    RuleSet `json:"rules,omitempty" db:"rules"`
	Out      bool    `json:"out,omitempty" db:"out"`
	Learning bool    `json:"learning,omitempty" db:"learning"`
}

// Changepoint is one detected (or history-supplied) level shift in a
// series: the mean moved from Before to After starting at Seq/Day, and
// the CUSUM noticed at DetectedSeq/DetectedDay. Cause is "detected" for
// CUSUM decisions and "code_version" for shifts aligned with a
// code-version change in harvested history.
type Changepoint struct {
	Seq         int     `json:"seq" db:"seq"`
	Day         int     `json:"day" db:"day"`
	T           float64 `json:"t" db:"t"`
	Cause       string  `json:"cause" db:"cause"`
	Before      float64 `json:"before" db:"before"`
	After       float64 `json:"after" db:"after"`
	DetectedSeq int     `json:"detected_seq" db:"detected_seq"`
	DetectedDay int     `json:"detected_day" db:"detected_day"`
}

// Changepoint causes.
const (
	CauseDetected    = "detected"
	CauseCodeVersion = "code_version"
)

// Shift returns the level change After − Before.
func (c Changepoint) Shift() float64 { return c.After - c.Before }

// Event is one judged observation, delivered to the observatory's event
// hook: the point as charted, the series' sticky in/out-of-control state,
// its transitions, and the changepoint if this point triggered one.
type Event struct {
	Kind    string
	Subject string
	Point   Point
	// SeriesOut is the sticky state after this point; WentOut/CameBack
	// mark the transitions (fire/resolve edges for alerting).
	SeriesOut   bool
	WentOut     bool
	CameBack    bool
	Changepoint *Changepoint
}

// seriesKey identifies one monitored series.
type seriesKey struct {
	kind    string
	subject string
}

// series is the online state of one control chart set.
type series struct {
	kind    string
	subject string

	points       []Point
	changepoints []Changepoint

	// Baseline: frozen center/sigma once fitted (from history or from the
	// first MinBaseline observed points).
	frozen bool
	center float64
	sigma  float64
	learn  []float64 // values collected while learning

	// resolution is the finest difference the baseline can resolve (0 =
	// exact): a baseline fitted from harvested logs only knows values to
	// the precision the logs carry them at.
	resolution float64

	// Chart state since the current segment began.
	ewma     float64
	ewmaN    int // judged points since segment start (for time-varying limits)
	cPos     float64
	cNeg     float64
	cPosRun  int // points since the positive arm last sat at zero
	cNegRun  int
	cPosSeq  int // seq where the positive arm left zero
	cNegSeq  int
	recentZ  []float64 // trailing z values for the run rules (last 8)
	segStart int       // seq of the first point of the current segment

	out bool // sticky out-of-control state
}

// Observatory is the online SPC engine: a set of monitored series fed by
// Observe* calls, judged point by point. Safe for concurrent use; the
// event hook is invoked with the lock released.
type Observatory struct {
	mu     sync.Mutex
	params Params
	series map[seriesKey]*series
	order  []seriesKey

	onEvent  func(Event)
	onReplan func(Event)

	// Daily-lateness accumulation: positive lateness summed per day,
	// emitted as the lateness/factory series when the day closes (a run
	// two days ahead arrives, or Finalize).
	dayLateness map[int]float64
	dayEnd      map[int]float64
	maxDay      int
	finalized   bool
}

// New builds an Observatory with the given chart parameters (zero fields
// fall back to DefaultParams).
func New(p Params) *Observatory {
	return &Observatory{
		params:      p.normalize(),
		series:      make(map[seriesKey]*series),
		dayLateness: make(map[int]float64),
		dayEnd:      make(map[int]float64),
	}
}

// OnEvent registers the per-point hook: every judged observation is
// delivered, in order, with its verdict and any changepoint. This is the
// seam the monitor's out-of-control and changepoint rules consume.
func (o *Observatory) OnEvent(fn func(Event)) {
	o.mu.Lock()
	o.onEvent = fn
	o.mu.Unlock()
}

// OnReplan registers the replan-trigger hook: invoked when a drift
// series transitions out of control — the signal the uncertainty-aware
// planner will use to schedule a replan (observed completions no longer
// match the plan the factory is executing).
func (o *Observatory) OnReplan(fn func(Event)) {
	o.mu.Lock()
	o.onReplan = fn
	o.mu.Unlock()
}

// get finds or creates a series. Callers hold the lock.
func (o *Observatory) get(kind, subject string) *series {
	k := seriesKey{kind, subject}
	s, ok := o.series[k]
	if !ok {
		s = &series{
			kind: kind, subject: subject,
			points: make([]Point, 0, 16),
			learn:  make([]float64, 0, o.params.MinBaseline),
		}
		o.series[k] = s
		o.order = append(o.order, k)
	}
	return s
}

// sigmaFloor keeps chart math finite on zero-variance baselines (a
// deterministic replay produces identical walltimes): any departure from
// the center still registers as a large z, never NaN.
func sigmaFloor(sigma, center float64) float64 {
	floor := 1e-9 * math.Max(1, math.Abs(center))
	return math.Max(sigma, floor)
}

// RunObs is one completed run as the observatory consumes it: the
// observed walltime, the planner's estimate (0 = unknown), and the
// completion against the deadline for lateness accounting. End and
// Deadline are absolute campaign seconds.
type RunObs struct {
	Forecast string
	Day      int
	Node     string
	Walltime float64
	// EstimatedWalltime is the launch-time predicted duration; when > 0
	// the estimate_error series receives Walltime − EstimatedWalltime.
	EstimatedWalltime float64
	End               float64
	Deadline          float64
}

// ObserveRun feeds one completed run: its walltime into run_time/<f>,
// its estimate error into estimate_error/<f>, and its positive lateness
// into the pending daily-lateness bucket. The run's series are judged
// under one lock acquisition — this is the replay hot path.
func (o *Observatory) ObserveRun(r RunObs) {
	var pending [2]Event
	n := 0
	o.mu.Lock()
	if !math.IsNaN(r.Walltime) && !math.IsInf(r.Walltime, 0) {
		if ev, emit := o.observeLocked(o.get(KindRunTime, r.Forecast), r.Day, r.End, r.Walltime); emit {
			pending[n] = ev
			n++
		}
		if r.EstimatedWalltime > 0 {
			if ev, emit := o.observeLocked(o.get(KindEstimateError, r.Forecast), r.Day, r.End, r.Walltime-r.EstimatedWalltime); emit {
				pending[n] = ev
				n++
			}
		}
	}
	if r.Deadline > 0 {
		if late := r.End - r.Deadline; late > 0 {
			o.dayLateness[r.Day] += late
		} else {
			o.dayLateness[r.Day] += 0
		}
	}
	if r.End > o.dayEnd[r.Day] {
		o.dayEnd[r.Day] = r.End
	}
	// A run from day d+2 closes day d: every day-d run (even one that
	// slipped past midnight) has landed by then. Buckets can only become
	// closable when a new latest day appears, so the scan is paid once
	// per day boundary, not once per run; a bucket reopened by a
	// straggler is swept up by the next boundary or by Finalize.
	var closed []latenessPoint
	if r.Day > o.maxDay {
		o.maxDay = r.Day
		for day := range o.dayLateness {
			if day <= r.Day-2 {
				closed = append(closed, latenessPoint{day, o.dayEnd[day], o.dayLateness[day]})
				delete(o.dayLateness, day)
				delete(o.dayEnd, day)
			}
		}
	}
	onEvent, onReplan := o.onEvent, o.onReplan
	o.mu.Unlock()
	for i := 0; i < n; i++ {
		if onEvent != nil {
			onEvent(pending[i])
		}
		if onReplan != nil && pending[i].Kind == KindDrift && pending[i].WentOut {
			onReplan(pending[i])
		}
	}
	o.emitLateness(closed)
}

type latenessPoint struct {
	day      int
	t        float64
	lateness float64
}

// emitLateness feeds closed days into the lateness series, oldest first.
// The common case is nothing or one day closing; the sort (and its
// closure) is only paid when a batch actually needs ordering.
func (o *Observatory) emitLateness(closed []latenessPoint) {
	if len(closed) == 0 {
		return
	}
	if len(closed) > 1 {
		sort.Slice(closed, func(i, j int) bool { return closed[i].day < closed[j].day })
	}
	for _, c := range closed {
		o.Observe(KindLateness, SubjectFactory, c.day, c.t, c.lateness)
	}
}

// ObserveDrift feeds one plan-vs-actual completion delta (seconds late
// of the launch-time prediction, negative = early) into drift/<forecast>.
func (o *Observatory) ObserveDrift(forecastName string, day int, t, endDelta float64) {
	o.Observe(KindDrift, forecastName, day, t, endDelta)
}

// ObserveNodeShare feeds one node's daily mean CPU share into
// node_share/<node>.
func (o *Observatory) ObserveNodeShare(node string, day int, t, share float64) {
	o.Observe(KindNodeShare, node, day, t, share)
}

// Finalize closes any pending daily-lateness buckets. Call once when the
// campaign (or replay) drains.
func (o *Observatory) Finalize() {
	o.mu.Lock()
	if o.finalized {
		o.mu.Unlock()
		return
	}
	o.finalized = true
	var closed []latenessPoint
	for day := range o.dayLateness {
		closed = append(closed, latenessPoint{day, o.dayEnd[day], o.dayLateness[day]})
		delete(o.dayLateness, day)
		delete(o.dayEnd, day)
	}
	o.mu.Unlock()
	o.emitLateness(closed)
}

// Observe feeds one raw observation into a series, judging it against
// the series' charts. NaN and infinite values are dropped (a sensor that
// produced no number has nothing to chart).
func (o *Observatory) Observe(kind, subject string, day int, t, value float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	o.mu.Lock()
	s := o.get(kind, subject)
	ev, emit := o.observeLocked(s, day, t, value)
	onEvent, onReplan := o.onEvent, o.onReplan
	o.mu.Unlock()
	if !emit {
		return
	}
	if onEvent != nil {
		onEvent(ev)
	}
	if onReplan != nil && ev.Kind == KindDrift && ev.WentOut {
		onReplan(ev)
	}
}

// observeLocked appends and judges one point. It returns the event and
// whether to emit it (learning points are recorded but not emitted).
func (o *Observatory) observeLocked(s *series, day int, t, value float64) (Event, bool) {
	p := Point{Seq: len(s.points), Day: day, T: t, Value: value}

	if !s.frozen {
		s.learn = append(s.learn, value)
		p.Learning = true
		s.points = append(s.points, p)
		if len(s.learn) >= o.params.MinBaseline {
			s.center, s.sigma = fitBaseline(s.learn)
			s.frozen = true
			s.learn = nil
			s.segStart = len(s.points)
			s.resetCharts()
		}
		return Event{}, false
	}

	p.Center, p.Sigma = s.center, s.sigma
	p.UCL = s.center + o.params.SigmaK*s.sigma
	p.LCL = s.center - o.params.SigmaK*s.sigma
	// A seeded series is judged at its history's resolution: a gap finer
	// than the baseline can resolve is no deviation, on either side.
	dev := value - s.center
	if s.resolution > 0 {
		dev = math.Round(dev/s.resolution) * s.resolution
	}
	p.Z = dev / s.sigma

	// Both accumulating charts see deviations clamped to ±CUSUMClamp
	// sigma: one wild outlier (a node-failure day) registers on the
	// Shewhart chart but cannot drag the EWMA out for a dozen points or
	// cross the CUSUM decision interval alone; sustained shifts pass the
	// clamp untouched.
	zc := math.Max(-o.params.CUSUMClamp, math.Min(o.params.CUSUMClamp, p.Z))

	// EWMA with time-varying limits.
	lam := o.params.EWMALambda
	if s.ewmaN == 0 {
		s.ewma = s.center
	}
	s.ewma = lam*(s.center+zc*s.sigma) + (1-lam)*s.ewma
	s.ewmaN++
	sz := s.sigma * math.Sqrt(lam/(2-lam)*(1-math.Pow(1-lam, 2*float64(s.ewmaN))))
	p.EWMA = s.ewma
	p.EWMAUpper = s.center + o.params.EWMAK*sz
	p.EWMALower = s.center - o.params.EWMAK*sz

	// Two-sided standardized CUSUM on the same clamped deviations.
	s.cPos = math.Max(0, s.cPos+zc-o.params.CUSUMSlack)
	if s.cPos == 0 {
		s.cPosRun, s.cPosSeq = 0, p.Seq+1
	} else if s.cPosRun == 0 {
		s.cPosRun, s.cPosSeq = 1, p.Seq
	} else {
		s.cPosRun++
	}
	s.cNeg = math.Max(0, s.cNeg-zc-o.params.CUSUMSlack)
	if s.cNeg == 0 {
		s.cNegRun, s.cNegSeq = 0, p.Seq+1
	} else if s.cNegRun == 0 {
		s.cNegRun, s.cNegSeq = 1, p.Seq
	} else {
		s.cNegRun++
	}
	p.CusumPos, p.CusumNeg = s.cPos, s.cNeg

	// Western Electric run rules on the Shewhart z. The trailing window
	// shifts in place (copy-down, not reslice) so the steady state
	// allocates nothing.
	if keep := max(8, o.params.MinShiftRun); len(s.recentZ) < keep {
		s.recentZ = append(s.recentZ, p.Z)
	} else {
		copy(s.recentZ, s.recentZ[1:])
		s.recentZ[len(s.recentZ)-1] = p.Z
	}
	p.Rules = o.runRules(s, p)

	// CUSUM decision: a changepoint when the arm crossed the decision
	// interval over a sustained run of points AND the shift is still
	// present in the last MinShiftRun observations. The second clause is
	// what separates a level shift from a transient: a short excursion
	// leaves the arm above the decision interval for many points while
	// it drains, but its trailing deviations have already gone quiet.
	var cp *Changepoint
	run := o.params.MinShiftRun
	if s.cPos > o.params.CUSUMDecision && s.cPosRun >= run &&
		lastRunBeyond(s.recentZ, run, o.params.CUSUMSlack, true) {
		cp = o.changepointLocked(s, p, s.cPosSeq)
	} else if s.cNeg > o.params.CUSUMDecision && s.cNegRun >= run &&
		lastRunBeyond(s.recentZ, run, o.params.CUSUMSlack, false) {
		cp = o.changepointLocked(s, p, s.cNegSeq)
	}
	if cp != nil {
		p.Rules |= ruleBitCUSUM
	}

	p.Out = p.Rules != 0
	wasOut := s.out
	s.out = p.Out
	s.points = append(s.points, p)

	if cp != nil {
		o.rebaselineLocked(s, cp.Seq)
	}

	return Event{
		Kind: s.kind, Subject: s.subject, Point: p,
		SeriesOut:   s.out,
		WentOut:     !wasOut && s.out,
		CameBack:    wasOut && !s.out,
		Changepoint: cp,
	}, true
}

// runRules evaluates we1–we4 and the EWMA limit on the latest point.
// Callers hold the lock; s.recentZ already includes p.Z.
func (o *Observatory) runRules(s *series, p Point) RuleSet {
	var rules RuleSet
	zs := s.recentZ
	if math.Abs(p.Z) > o.params.SigmaK {
		rules |= ruleBitWE1
	}
	if sideCount(zs, 3, 2) >= 2 {
		rules |= ruleBitWE2
	}
	if sideCount(zs, 5, 1) >= 4 {
		rules |= ruleBitWE3
	}
	if sameSideRun(zs) >= 8 {
		rules |= ruleBitWE4
	}
	if p.EWMA > p.EWMAUpper || p.EWMA < p.EWMALower {
		rules |= ruleBitEWMA
	}
	return rules
}

// sideCount returns the larger one-sided count of |z| > bound among the
// trailing window values, counting only values on the same side as the
// most recent such excursion (the Western Electric "m of n on one side").
func sideCount(zs []float64, window int, bound float64) int {
	if len(zs) > window {
		zs = zs[len(zs)-window:]
	}
	var hi, lo int
	for _, z := range zs {
		if z > bound {
			hi++
		} else if z < -bound {
			lo++
		}
	}
	if hi > lo {
		return hi
	}
	return lo
}

// lastRunBeyond reports whether the trailing n z values all sit beyond
// the slack on the given side — the CUSUM's "shift still present"
// check: the arm may hold banked evidence from an excursion that has
// already reverted, but the trailing window cannot.
func lastRunBeyond(zs []float64, n int, slack float64, positive bool) bool {
	if len(zs) < n {
		return false
	}
	for _, z := range zs[len(zs)-n:] {
		if positive && z <= slack {
			return false
		}
		if !positive && z >= -slack {
			return false
		}
	}
	return true
}

// sameSideRun returns the length of the trailing run of z values
// strictly on one side of center.
func sameSideRun(zs []float64) int {
	n := 0
	side := 0
	for i := len(zs) - 1; i >= 0; i-- {
		s := 0
		if zs[i] > 0 {
			s = 1
		} else if zs[i] < 0 {
			s = -1
		}
		if s == 0 {
			break
		}
		if side == 0 {
			side = s
		}
		if s != side {
			break
		}
		n++
	}
	return n
}

// changepointLocked dates a CUSUM decision: the shift began where the
// deciding arm last sat at zero. Callers hold the lock; p is the current
// (not yet appended) point.
func (o *Observatory) changepointLocked(s *series, p Point, startSeq int) *Changepoint {
	if startSeq < s.segStart {
		startSeq = s.segStart
	}
	cp := Changepoint{
		Seq: startSeq, Cause: CauseDetected,
		Before:      s.center,
		DetectedSeq: p.Seq, DetectedDay: p.Day,
	}
	if startSeq < len(s.points) {
		cp.Day = s.points[startSeq].Day
		cp.T = s.points[startSeq].T
	} else {
		cp.Day, cp.T = p.Day, p.T
	}
	// After: the mean of the shifted segment observed so far.
	var sum float64
	n := 0
	for i := startSeq; i < len(s.points); i++ {
		sum += s.points[i].Value
		n++
	}
	sum += p.Value
	n++
	cp.After = sum / float64(n)
	s.changepoints = append(s.changepoints, cp)
	return &s.changepoints[len(s.changepoints)-1]
}

// rebaselineLocked starts a new segment at seq: the points observed
// since the changepoint (plus the current one) seed the new baseline —
// refit immediately when there are enough, otherwise fall back to the
// shifted segment's mean with the old sigma (refined as points arrive is
// deliberately not done: a frozen baseline keeps the charts honest).
func (o *Observatory) rebaselineLocked(s *series, seq int) {
	var vals []float64
	for i := seq; i < len(s.points); i++ {
		vals = append(vals, s.points[i].Value)
	}
	if len(vals) >= 2 {
		center, sigma := fitBaseline(vals)
		s.center = center
		if len(vals) >= o.params.MinBaseline {
			s.sigma = sigma
		} else {
			s.sigma = sigmaFloor(s.sigma, center) // keep the proven noise scale
		}
	} else if len(vals) == 1 {
		s.center = vals[0]
		s.sigma = sigmaFloor(s.sigma, s.center)
	}
	s.segStart = len(s.points)
	s.resetCharts()
}

// resetCharts clears the chart state at a segment boundary.
func (s *series) resetCharts() {
	s.ewma, s.ewmaN = 0, 0
	s.cPos, s.cNeg = 0, 0
	s.cPosRun, s.cNegRun = 0, 0
	s.cPosSeq, s.cNegSeq = s.segStart, s.segStart
	s.recentZ = s.recentZ[:0]
}

// fitBaseline estimates center and sigma from a sample: center is the
// mean, sigma the mean moving range over d2 (the individuals-chart
// estimator, robust to slow trends), floored to keep math finite on
// zero-variance samples.
func fitBaseline(vals []float64) (center, sigma float64) {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	center = sum / float64(len(vals))
	var mrSum float64
	for i := 1; i < len(vals); i++ {
		mrSum += math.Abs(vals[i] - vals[i-1])
	}
	if len(vals) > 1 {
		sigma = mrSum / float64(len(vals)-1) / d2
	}
	return center, sigmaFloor(sigma, center)
}

// SeriesReport is one series' full charted history plus its current
// standing, as served by /api/spc and rendered by `foreman -spc`.
type SeriesReport struct {
	Kind    string `json:"kind"`
	Subject string `json:"subject"`

	// Current baseline and limits (zero while still learning).
	Center float64 `json:"center"`
	Sigma  float64 `json:"sigma"`
	UCL    float64 `json:"ucl"`
	LCL    float64 `json:"lcl"`

	Points       []Point       `json:"points"`
	Changepoints []Changepoint `json:"changepoints,omitempty"`

	// Violations counts judged points with at least one rule violation;
	// Out is the sticky state after the last judged point.
	Violations int  `json:"violations"`
	Out        bool `json:"out"`
}

// Report is one observatory's full state: every monitored series with
// its points, verdicts, and changepoints, ordered by (kind, subject).
type Report struct {
	Series []SeriesReport `json:"series"`
}

// Report snapshots the observatory. The snapshot is deep: mutating it
// does not touch the live series.
func (o *Observatory) Report() *Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	rep := &Report{Series: make([]SeriesReport, 0, len(o.order))}
	keys := append([]seriesKey(nil), o.order...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return kindRank(keys[i].kind) < kindRank(keys[j].kind)
		}
		return keys[i].subject < keys[j].subject
	})
	for _, k := range keys {
		s := o.series[k]
		sr := SeriesReport{
			Kind: s.kind, Subject: s.subject,
			Points:       clonePoints(s.points),
			Changepoints: append([]Changepoint(nil), s.changepoints...),
			Out:          s.out,
		}
		if s.frozen {
			sr.Center, sr.Sigma = s.center, s.sigma
			sr.UCL = s.center + o.params.SigmaK*s.sigma
			sr.LCL = s.center - o.params.SigmaK*s.sigma
		}
		for i := range sr.Points {
			if sr.Points[i].Out {
				sr.Violations++
			}
		}
		rep.Series = append(rep.Series, sr)
	}
	return rep
}

// kindRank orders kinds canonically, unknown kinds last alphabetically.
func kindRank(kind string) string {
	for i, k := range Kinds() {
		if k == kind {
			return fmt.Sprintf("%d", i)
		}
	}
	return "9" + kind
}

// clonePoints copies points; Point holds no pointers, so a flat copy is
// a deep copy.
func clonePoints(ps []Point) []Point {
	out := make([]Point, len(ps))
	copy(out, ps)
	return out
}
