package core

import (
	"fmt"
	"math"
	"sort"
)

// BackfillJob is a calibration run or hindcast (§2 of the paper: "the
// system includes daily forecasts ... as well as calibration runs and
// hindcasts that are run retroactively for a fixed period of time").
// Unlike forecasts these are not perishable; they soak idle capacity but
// must never delay a forecast past its deadline.
type BackfillJob struct {
	Name string
	Work float64 // reference CPU-seconds
}

// BackfillPlacement records where and when a backfill job was scheduled.
type BackfillPlacement struct {
	Job        BackfillJob
	Node       string
	Start      float64
	Completion float64 // predicted
}

// PlanBackfill extends a forecast schedule with hindcast/calibration work
// without making any forecast late: each job is placed, in name order,
// on the node and start time yielding the earliest predicted
// completion among placements that keep every deadline in the schedule
// intact and finish within the horizon (seconds after midnight; <= 0
// means one week). Jobs that fit nowhere are returned in skipped.
//
// The schedule is modified in place: placed jobs appear as runs named
// "backfill:<name>" with priority 0, so the Gantt view and later
// what-ifs see them.
func PlanBackfill(s *Schedule, jobs []BackfillJob, horizon float64) (placed []BackfillPlacement, skipped []BackfillJob, err error) {
	if s == nil || s.Plan == nil {
		return nil, nil, fmt.Errorf("core: PlanBackfill on nil schedule")
	}
	if horizon <= 0 {
		horizon = 7 * 86400
	}
	ordered := append([]BackfillJob(nil), jobs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })

	for _, job := range ordered {
		if job.Work < 0 {
			return nil, nil, fmt.Errorf("core: backfill job %q has negative work", job.Name)
		}
		runName := "backfill:" + job.Name
		if _, exists := s.Plan.Run(runName); exists {
			return nil, nil, fmt.Errorf("core: backfill job %q already planned", job.Name)
		}

		type option struct {
			node       string
			start      float64
			completion float64
		}
		var best *option
		for _, node := range s.Plan.Nodes {
			if node.Down {
				continue
			}
			// Candidate starts: immediately, or when the node's existing
			// work is predicted to drain (idle capacity).
			starts := []float64{0}
			drain := 0.0
			for _, r := range s.Plan.runsOn(node.Name) {
				if c := s.Prediction.Completion[r.Name]; c > drain && !math.IsInf(c, 1) {
					drain = c
				}
			}
			if drain > 0 {
				starts = append(starts, drain)
			}
			for _, start := range starts {
				trial := s.Plan.Clone()
				trial.Runs = append(trial.Runs, Run{Name: runName, Work: job.Work, Start: start})
				trial.Assign[runName] = node.Name
				pred, err := trial.Predict()
				if err != nil {
					return nil, nil, err
				}
				if !pred.Feasible(trial) {
					continue
				}
				c := pred.Completion[runName]
				if c > horizon {
					continue
				}
				if best == nil || c < best.completion ||
					(c == best.completion && node.Name < best.node) {
					best = &option{node: node.Name, start: start, completion: c}
				}
			}
		}
		if best == nil {
			skipped = append(skipped, job)
			continue
		}
		s.Plan.Runs = append(s.Plan.Runs, Run{Name: runName, Work: job.Work, Start: best.start})
		s.Plan.Assign[runName] = best.node
		if err := s.repredict(); err != nil {
			return nil, nil, err
		}
		placed = append(placed, BackfillPlacement{
			Job:        job,
			Node:       best.node,
			Start:      best.start,
			Completion: s.Prediction.Completion[runName],
		})
	}
	return placed, skipped, nil
}
