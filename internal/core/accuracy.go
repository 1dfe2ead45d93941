package core

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/logs"
	"repro/internal/telemetry"
)

// pctErrorBuckets bound the absolute-percentage-error histogram; run-time
// estimates in the paper's regime are good to a few percent, so the scale
// is much finer than the duration buckets.
var pctErrorBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100}

// EstimateSample is one replayed estimate: what the estimator would have
// predicted for a run given only the history that preceded it, versus the
// walltime the run actually took.
type EstimateSample struct {
	Forecast  string
	Year, Day int
	Node      string
	Predicted float64
	Actual    float64
}

// AbsPctError returns |predicted−actual|/actual as a percentage.
func (s EstimateSample) AbsPctError() float64 {
	return 100 * math.Abs(s.Predicted-s.Actual) / s.Actual
}

// EstimateAccuracy summarises how well the §4.3.2 estimator tracks the
// factory's actual walltimes.
type EstimateAccuracy struct {
	Samples []EstimateSample
	// MAPE is the mean absolute percentage error across all samples.
	MAPE float64
}

// EvaluateEstimates replays the estimator over history: every completed
// run beyond the first of its forecast is estimated from the records
// before it and compared to its actual walltime. When a telemetry sink is
// installed (SetTelemetry), each sample lands in the registry as
// core_estimate_predicted_seconds / core_estimate_actual_seconds gauges
// labelled by (forecast, day), and its error feeds the
// core_estimate_abs_pct_error histogram.
func EvaluateEstimates(records []*logs.RunRecord, nodes []NodeInfo) EstimateAccuracy {
	byForecast := make(map[string][]*logs.RunRecord)
	// Every node the replay looks up (each sample's basis and target) is
	// named by a record, so the speed index holds just those and its size
	// follows the history, not the plant. A name the plant does not list
	// keeps speed 0, which estimateFrom rejects like a missing one.
	nodeSpeed := make(map[string]float64)
	for _, r := range records {
		if r.Status != logs.StatusCompleted || r.Walltime <= 0 {
			continue
		}
		byForecast[r.Forecast] = append(byForecast[r.Forecast], r)
		nodeSpeed[r.Node] = 0
	}
	for _, n := range nodes {
		if _, ok := nodeSpeed[n.Name]; ok {
			nodeSpeed[n.Name] = n.Speed
		}
	}
	names := make([]string, 0, len(byForecast))
	for name := range byForecast {
		names = append(names, name)
	}
	sort.Strings(names)

	var reg *telemetry.Registry
	if t := plannerTelemetry(); t != nil {
		reg = t.Registry()
		reg.Describe("core_estimate_predicted_seconds", "Replayed runtime estimate, by forecast and day.")
		reg.Describe("core_estimate_actual_seconds", "Actual run walltime, by forecast and day.")
		reg.Describe("core_estimate_abs_pct_error", "Absolute percentage error of replayed estimates.")
	}

	// Every record after its forecast's first is a sample unless its
	// estimate fails, so this bounds the sample count.
	bound := 0
	for _, rs := range byForecast {
		bound += len(rs) - 1
	}
	acc := EstimateAccuracy{Samples: make([]EstimateSample, 0, bound)}
	var errSum float64
	for _, name := range names {
		rs := byForecast[name]
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Year != rs[j].Year {
				return rs[i].Year < rs[j].Year
			}
			return rs[i].Day < rs[j].Day
		})
		for i := 1; i < len(rs); i++ {
			// The history before target is rs[:i], already in day order,
			// so its latest record prev is the estimate's basis.
			target := rs[i]
			prev := rs[i-1]
			adjust := 1.0
			if prev.CodeFactor > 0 && target.CodeFactor > 0 {
				adjust = target.CodeFactor / prev.CodeFactor
			}
			est, err := estimateFrom(prev, Request{
				Forecast:  name,
				Timesteps: target.Timesteps,
				MeshSides: target.MeshSides,
				Node:      target.Node,
				Adjust:    adjust,
			}, nodeSpeed)
			if err != nil {
				continue
			}
			s := EstimateSample{
				Forecast:  name,
				Year:      target.Year,
				Day:       target.Day,
				Node:      target.Node,
				Predicted: est.Seconds,
				Actual:    target.Walltime,
			}
			acc.Samples = append(acc.Samples, s)
			errSum += s.AbsPctError()
			if reg != nil {
				lbl := telemetry.Labels{"forecast": name, "day": strconv.Itoa(target.Day)}
				reg.Gauge("core_estimate_predicted_seconds", lbl).Set(s.Predicted)
				reg.Gauge("core_estimate_actual_seconds", lbl).Set(s.Actual)
				reg.Histogram("core_estimate_abs_pct_error", pctErrorBuckets, nil).Observe(s.AbsPctError())
			}
		}
	}
	if len(acc.Samples) == 0 {
		acc.Samples = nil // no sample reads as nil, not as an empty slice
		return acc
	}
	acc.MAPE = errSum / float64(len(acc.Samples))
	return acc
}
