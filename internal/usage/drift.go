package usage

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/plot"
)

// Outcome is the observed execution of one planned run: where it
// actually ran and when it actually started and ended, in seconds on the
// sampler's clock (for a one-day replay, seconds after midnight).
type Outcome struct {
	Run      string
	Node     string
	Start    float64
	End      float64
	Finished bool
}

// Drift is one plan-vs-actual comparison: ForeMan's planned assignment
// and predicted completion against the run's observed execution, with
// the mean CPU share the run's node delivered while it was active. A
// run finishing late with a low observed share drifted because of
// contention; late with share ≈ 1 means the work estimate itself was
// off — the distinction Bader et al. show plan-quality feedback needs.
type Drift struct {
	Run         string  `json:"run" db:"forecast"`
	Day         int     `json:"day" db:"day"`
	PlannedNode string  `json:"planned_node" db:"planned_node"`
	ActualNode  string  `json:"actual_node" db:"actual_node"`
	Moved       bool    `json:"moved" db:"moved"`
	PredStart   float64 `json:"predicted_start" db:"predicted_start"`
	PredEnd     float64 `json:"predicted_end" db:"predicted_end"`
	ActualStart float64 `json:"actual_start" db:"actual_start"`
	ActualEnd   float64 `json:"actual_end" db:"actual_end"`
	// EndDelta is actual − predicted completion (positive = late).
	EndDelta float64 `json:"end_delta" db:"end_delta"`
	// RelError is |EndDelta| over the predicted duration (floored at 1 s).
	RelError float64 `json:"rel_error" db:"rel_error"`
	// MeanShare is the observed time-average per-job CPU share on the
	// actual node across the run's lifetime.
	MeanShare float64 `json:"mean_share" db:"mean_share"`
}

// ShareSource yields observed mean shares; *Sampler implements it.
type ShareSource interface {
	MeanShareOver(node string, start, end float64) float64
}

// ComputeDrift joins day's plan and its prediction against observed
// outcomes; each record carries day, the key it joins runs on with its
// forecast. Runs the planner dropped (no finite predicted completion)
// and outcomes that never finished are skipped — there is no completion
// to compare. shares may be nil (MeanShare reported as 1). Results are
// sorted by descending |EndDelta|: the worst drift first.
func ComputeDrift(plan *core.Plan, pred core.Prediction, day int, outcomes []Outcome, shares ShareSource) []Drift {
	var out []Drift
	for _, o := range outcomes {
		if !o.Finished {
			continue
		}
		predEnd, ok := pred.Completion[o.Run]
		if !ok || math.IsInf(predEnd, 0) || math.IsNaN(predEnd) {
			continue
		}
		run, _ := plan.Run(o.Run)
		d := Drift{
			Run:         o.Run,
			Day:         day,
			PlannedNode: plan.Assign[o.Run],
			ActualNode:  o.Node,
			PredStart:   run.Start,
			PredEnd:     predEnd,
			ActualStart: o.Start,
			ActualEnd:   o.End,
			EndDelta:    o.End - predEnd,
			MeanShare:   1,
		}
		d.Moved = d.PlannedNode != "" && d.PlannedNode != o.Node
		d.RelError = math.Abs(d.EndDelta) / math.Max(predEnd-run.Start, 1)
		if shares != nil {
			d.MeanShare = shares.MeanShareOver(o.Node, o.Start, o.End)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].EndDelta), math.Abs(out[j].EndDelta)
		if ai != aj {
			return ai > aj
		}
		return out[i].Run < out[j].Run
	})
	return out
}

// DriftSummary aggregates a drift set for the one-line report.
type DriftSummary struct {
	Runs      int     `json:"runs"`
	Moved     int     `json:"moved"`
	Late      int     `json:"late"` // EndDelta > 0
	MeanAbs   float64 `json:"mean_abs_delta"`
	MaxAbs    float64 `json:"max_abs_delta"`
	MeanRel   float64 `json:"mean_rel_error"`
	WorstRun  string  `json:"worst_run"`
	MeanShare float64 `json:"mean_share"`
}

// Summarize reduces a drift set to its headline numbers.
func Summarize(ds []Drift) DriftSummary {
	var s DriftSummary
	s.Runs = len(ds)
	if s.Runs == 0 {
		s.MeanShare = 1
		return s
	}
	var sumAbs, sumRel, sumShare float64
	for _, d := range ds {
		abs := math.Abs(d.EndDelta)
		sumAbs += abs
		sumRel += d.RelError
		sumShare += d.MeanShare
		if d.Moved {
			s.Moved++
		}
		if d.EndDelta > 0 {
			s.Late++
		}
		if abs > s.MaxAbs {
			s.MaxAbs = abs
			s.WorstRun = d.Run
		}
	}
	n := float64(s.Runs)
	s.MeanAbs = sumAbs / n
	s.MeanRel = sumRel / n
	s.MeanShare = sumShare / n
	return s
}

// DriftReport renders the drift table and summary as plain text.
func DriftReport(ds []Drift) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-10s %-10s %10s %10s %9s %7s %6s\n",
		"run", "planned", "actual", "pred end", "act end", "delta", "rel", "share")
	for _, d := range ds {
		moved := " "
		if d.Moved {
			moved = "*"
		}
		fmt.Fprintf(&b, "%-24s %-10s %-9s%s %10s %10s %9s %6.1f%% %6.2f\n",
			d.Run, d.PlannedNode, d.ActualNode, moved,
			plot.HHMM(d.PredEnd), plot.HHMM(d.ActualEnd), plot.HHMM(d.EndDelta), 100*d.RelError, d.MeanShare)
	}
	s := Summarize(ds)
	fmt.Fprintf(&b, "drift: %d runs, %d late, %d moved; mean |delta| %s, max %s (%s); mean rel error %.1f%%, mean share %.2f\n",
		s.Runs, s.Late, s.Moved, plot.HHMM(s.MeanAbs), plot.HHMM(s.MaxAbs), s.WorstRun, 100*s.MeanRel, s.MeanShare)
	return b.String()
}
