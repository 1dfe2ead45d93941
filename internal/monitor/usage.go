package monitor

import (
	"fmt"
	"math"

	"repro/internal/plot"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// DriftRule fires when a completed run lands further from its
// launch-time prediction than tolerated: |actual end − launch ETA| over
// the predicted duration exceeds RelAbove — the plan-quality alert that
// closes the loop between ForeMan's schedule and the observed factory.
// Both early and late drift fire (a plan wrong in either direction is a
// plan not to trust). The zero value disables the rule.
type DriftRule struct {
	// RelAbove is the relative-error bound (e.g. 0.25 = 25% of the
	// predicted duration). Zero or negative disables the rule.
	RelAbove float64
	// MinSecs suppresses drift smaller than this many sim seconds, so
	// short runs with tiny absolute deltas don't page (default 0).
	MinSecs  float64
	Severity Severity
}

// checkDrift compares a just-completed run's landing against its
// launch-time prediction. Callers hold the monitor's lock.
func (m *Monitor) checkDrift(r *RunSLO) {
	rule := m.opts.Drift
	if rule.RelAbove <= 0 || r.LaunchETA <= 0 || r.End <= 0 {
		return
	}
	key := "drift:" + runKey(r.Forecast, r.Day)
	delta := r.End - r.LaunchETA
	rel := math.Abs(delta) / math.Max(r.LaunchETA-r.Start, 1)
	if rel > rule.RelAbove && math.Abs(delta) >= rule.MinSecs {
		direction := "late"
		if delta < 0 {
			direction = "early"
		}
		m.book.fire(m.now, Alert{
			Rule: "plan_drift", Key: key, Severity: rule.Severity,
			Forecast: r.Forecast, Day: r.Day, Node: r.Node,
			Value: rel, Threshold: rule.RelAbove,
			Message: fmt.Sprintf("%s day %d landed %s %s of plan (%.0f%% of predicted duration)",
				r.Forecast, r.Day, plot.HHMM(math.Abs(delta)), direction, 100*rel),
		})
	} else {
		m.book.resolve(m.now, key)
	}
}

// UsageRules builds the utilization alert set over the usage sampler's
// gauges: per-node sustained saturation (an open contention window older
// than sustain seconds) and cluster imbalance (idle nodes while another
// node is saturated, sustained). Append the result to Options.Thresholds
// when a Sampler feeds the same registry the monitor evaluates.
func UsageRules(nodes []string, sustain float64, sev Severity) []ThresholdRule {
	if sustain <= 0 {
		sustain = 1800
	}
	var rules []ThresholdRule
	for _, n := range nodes {
		rules = append(rules, ThresholdRule{
			Name:     "saturation:" + n,
			Metric:   usage.MetricContentionAge,
			Labels:   telemetry.Labels{"node": n},
			Above:    sustain,
			Severity: sev,
		})
	}
	rules = append(rules, ThresholdRule{
		Name:     "imbalance",
		Metric:   usage.MetricImbalanceAge,
		Above:    sustain,
		Severity: sev,
	})
	return rules
}
