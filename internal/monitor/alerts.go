package monitor

import (
	"fmt"
	"sort"

	"repro/internal/telemetry"
)

// Severity ranks an alert's urgency.
type Severity int

// Severities, least to most urgent.
const (
	SevInfo Severity = iota
	SevWarning
	SevCritical
)

// String names the severity for reports and the alerts table.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name back into its rank.
func (s *Severity) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"info"`:
		*s = SevInfo
	case `"warning"`:
		*s = SevWarning
	case `"critical"`:
		*s = SevCritical
	default:
		return fmt.Errorf("monitor: unknown severity %s", data)
	}
	return nil
}

// Alert states.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is one occurrence of a rule condition, with a firing→resolved
// lifecycle. Times are virtual campaign seconds; ResolvedAt is zero while
// the alert is firing.
type Alert struct {
	ID       int64    `json:"id"`
	Rule     string   `json:"rule"`
	Key      string   `json:"key"` // dedupe key: one firing alert per key
	Severity Severity `json:"severity"`
	State    string   `json:"state"`
	Forecast string   `json:"forecast,omitempty"`
	Day      int      `json:"day,omitempty"`
	Node     string   `json:"node,omitempty"`
	Message  string   `json:"message"`
	// Value and Threshold record the observation that tripped the rule
	// (e.g. predicted completion vs deadline, walltime vs median bound).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Predicted marks alerts raised before the condition has actually
	// occurred (an ETA past the deadline, rather than a late completion).
	Predicted  bool    `json:"predicted,omitempty"`
	FiredAt    float64 `json:"fired_at"`
	ResolvedAt float64 `json:"resolved_at,omitempty"`
}

// Firing reports whether the alert is still active.
func (a *Alert) Firing() bool { return a.State == StateFiring }

// alertBook is the alert engine's ledger: full history plus the currently
// firing alert per dedupe key. Callers hold the monitor's lock.
type alertBook struct {
	nextID  int64
	history []*Alert
	firing  map[string]*Alert

	mFiring *telemetry.Gauge
	reg     *telemetry.Registry
}

func newAlertBook(reg *telemetry.Registry) *alertBook {
	reg.Describe("monitor_alerts_firing", "Alerts currently firing.")
	reg.Describe("monitor_alerts_fired_total", "Alerts fired, by rule and severity.")
	return &alertBook{
		firing:  make(map[string]*Alert),
		reg:     reg,
		mFiring: reg.Gauge("monitor_alerts_firing", nil),
	}
}

// fire raises (or refreshes) the alert for a.Key. If an alert with the
// same key is already firing, its observation fields are updated in place
// and no new history entry is created.
func (b *alertBook) fire(now float64, a Alert) *Alert {
	if cur, ok := b.firing[a.Key]; ok {
		cur.Value = a.Value
		cur.Threshold = a.Threshold
		cur.Message = a.Message
		// Escalation (a predicted miss becoming an actual one) replaces
		// severity and sheds the predicted flag.
		if a.Severity > cur.Severity {
			cur.Severity = a.Severity
		}
		if !a.Predicted {
			cur.Predicted = false
		}
		return cur
	}
	b.nextID++
	a.ID = b.nextID
	a.State = StateFiring
	a.FiredAt = now
	n := new(Alert)
	*n = a
	b.history = append(b.history, n)
	b.firing[a.Key] = n
	b.mFiring.Add(1)
	b.reg.Counter("monitor_alerts_fired_total",
		telemetry.Labels{"rule": a.Rule, "severity": a.Severity.String()}).Inc()
	return n
}

// resolve closes the firing alert for key, if any.
func (b *alertBook) resolve(now float64, key string) *Alert {
	a, ok := b.firing[key]
	if !ok {
		return nil
	}
	delete(b.firing, key)
	a.State = StateResolved
	a.ResolvedAt = now
	b.mFiring.Add(-1)
	return a
}

// snapshotFiring returns copies of the firing alerts, oldest first.
func (b *alertBook) snapshotFiring() []Alert {
	out := make([]Alert, 0, len(b.firing))
	for _, a := range b.firing {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// snapshotAll returns copies of the whole alert history in firing order.
func (b *alertBook) snapshotAll() []Alert {
	out := make([]Alert, len(b.history))
	for i, a := range b.history {
		out[i] = *a
	}
	return out
}

// ThresholdRule fires while a metric series exceeds a bound — the simple
// "node is saturated / too much WIP" class of alert. The metric value is
// read from the registry (Registry.Value) on every monitor tick; counters
// and gauges compare their value, histograms their observation count.
type ThresholdRule struct {
	Name     string           // rule name; also the dedupe key suffix
	Metric   string           // metric family name in the registry
	Labels   telemetry.Labels // series selector (nil = the unlabelled series)
	Above    float64          // fire while value > Above
	Severity Severity
}

// StalenessRule fires when a timestamp gauge falls too far behind the
// monitor clock — the data-quality alert for "the harvester stopped": the
// harvester publishes the sim time of its last pass, and this rule pages
// when that heartbeat goes quiet. The rule stays silent until the metric
// exists, so a campaign that never harvests never alerts.
type StalenessRule struct {
	Name     string  // rule name; also the dedupe key suffix
	Metric   string  // unlabelled gauge holding a sim-time timestamp
	MaxAge   float64 // fire while now − value > MaxAge (sim seconds)
	Severity Severity
}

// RateRule fires when a counter grows faster than a bound — the
// data-quality alert for quarantine-rate spikes: a corrupt log or two is
// routine, a burst means a code deployment is writing garbage. The
// monitor differentiates the counter between consecutive ticks; the rule
// resolves once the rate falls back under the bound.
type RateRule struct {
	Name         string  // rule name; also the dedupe key suffix
	Metric       string  // unlabelled counter to differentiate
	PerHourAbove float64 // fire while d(value)/dt > PerHourAbove per sim hour
	Severity     Severity
}

// rateState holds one RateRule's previous observation between ticks.
type rateState struct {
	value float64
	at    float64
	seen  bool
}

// The run-time regression rule fires (at warning) when a completed run's
// walltime exceeds regressionRatio times the trailing median of that
// forecast's previous regressionWindow completed runs — the rolling-window
// anomaly detector for the step changes of Figures 8 and 9 (a doubled
// timestep count, a slower code version) and for creeping contention. It
// resolves when a later run of the same forecast comes back under the
// bound.
const (
	regressionWindow     = 7   // trailing runs forming the baseline
	regressionRatio      = 1.5 // fire when walltime > ratio × median
	regressionMinSamples = 3   // baseline runs required before judging
)

// trailingMedian computes the median of the last regressionWindow
// walltimes (already oldest first). It returns false with fewer than
// regressionMinSamples samples.
func trailingMedian(walltimes []float64) (float64, bool) {
	n := len(walltimes)
	if n > regressionWindow {
		walltimes = walltimes[n-regressionWindow:]
		n = regressionWindow
	}
	if n < regressionMinSamples {
		return 0, false
	}
	sorted := append([]float64(nil), walltimes...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2], true
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2, true
}
