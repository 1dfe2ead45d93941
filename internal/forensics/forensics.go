// Package forensics answers the factory operator's question the paper's
// whole management premise (§4.3) circles: why was this forecast late?
// It is a post-hoc analysis layer over the sensors the
// observability PRs built — telemetry spans give each run's causal chain,
// the planner's prediction gives what should have happened, and the usage
// timelines give what the node was doing while it happened. From those a
// pass extracts each run's critical path through the workflow/dataflow
// DAG and decomposes its lateness into five named components that sum,
// exactly, to the observed lateness (see DESIGN.md §10):
//
//	queue wait      launching after the planned start (ready, no node)
//	contention      PS share < 1 stretching the executing time
//	failure         node down time inside the run's extent
//	upstream wait   blocked on dataflow inputs (no child span active)
//	estimate error  effective work time vs the planned duration
package forensics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// Component names, as persisted in the dominant column and served by
// /api/forensics. Order is the canonical report order.
const (
	CompQueueWait     = "queue_wait"
	CompContention    = "contention"
	CompFailure       = "failure"
	CompUpstreamWait  = "upstream_wait"
	CompEstimateError = "estimate_error"
	// CompNone marks a run (or day) with no positive blame component.
	CompNone = "none"
)

// Components lists the five blame components in canonical order.
func Components() []string {
	return []string{CompQueueWait, CompContention, CompFailure, CompUpstreamWait, CompEstimateError}
}

// PlanEntry is what the plan said about one run: where and when it was
// supposed to execute. Start/End/Deadline are absolute campaign seconds.
// Sources: core.Plan+Prediction for a planned replay, or the monitor's
// launch-time schedule (day start + spec offset, LaunchETA) for a live
// campaign. End <= Start marks the prediction unknown; the run is then
// analyzed as unplanned (zero queue wait and estimate error).
type PlanEntry struct {
	Forecast string  `json:"forecast"`
	Day      int     `json:"day"`
	Node     string  `json:"node"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Deadline float64 `json:"deadline"`
}

// ShareSource supplies the observed node conditions the decomposition
// charges the contention and failure components against. The campaign's
// usage.Sampler implements it, mid-campaign or after.
type ShareSource interface {
	MeanShareOver(node string, start, end float64) float64
	DownSecsOver(node string, start, end float64) float64
}

// Input bundles one forensics pass's evidence.
type Input struct {
	// Spans is the campaign trace (telemetry.Tracer.Spans). Run spans
	// (cat "run") anchor the analysis; their child simulation and product
	// spans reconstruct the causal chain.
	Spans []telemetry.Span
	// Plan carries the planned start/end/deadline per (forecast, day).
	// Runs without an entry are analyzed as unplanned.
	Plan []PlanEntry
	// Timeline supplies observed CPU shares and node down time.
	Timeline ShareSource
}

// Segment is one step of a run's critical path: a span that gated the
// run's completion, or a wait gap where nothing of the run was executing
// (blocked on dataflow inputs or dispatch).
type Segment struct {
	Seq   int     `json:"seq" db:"seq"`
	Kind  string  `json:"kind" db:"kind"` // span category, or "wait" for gaps
	Name  string  `json:"name" db:"name"`
	Node  string  `json:"node" db:"node"`
	Start float64 `json:"start" db:"start"`
	End   float64 `json:"end" db:"end"`
}

// Duration returns the segment length in seconds.
func (s Segment) Duration() float64 { return s.End - s.Start }

// RunBlame is the forensic verdict on one run: its observed extent, the
// plan it was held against, the lateness decomposition, and the critical
// path. The five components sum to Lateness exactly (the property the
// tests enforce); negative components are credits (an early start, an
// overestimate) and positive ones are blame.
type RunBlame struct {
	Forecast string  `json:"forecast" db:"forecast"`
	Day      int     `json:"day" db:"day"`
	Node     string  `json:"node" db:"node"`
	Start    float64 `json:"start" db:"start"`
	End      float64 `json:"end" db:"end"`

	Planned      bool    `json:"planned" db:"planned"`
	PlannedStart float64 `json:"planned_start" db:"planned_start"`
	PlannedEnd   float64 `json:"planned_end" db:"planned_end"`
	Deadline     float64 `json:"deadline,omitempty" db:"deadline"`

	// Lateness is End − PlannedEnd: how far past the plan the run landed
	// (negative = early). DeadlineMiss is max(0, End − Deadline), zero
	// when no deadline is known.
	Lateness     float64 `json:"lateness" db:"lateness"`
	DeadlineMiss float64 `json:"deadline_miss,omitempty" db:"deadline_miss"`

	QueueWait     float64 `json:"queue_wait" db:"queue_wait"`
	Contention    float64 `json:"contention" db:"contention"`
	Failure       float64 `json:"failure" db:"failure"`
	UpstreamWait  float64 `json:"upstream_wait" db:"upstream_wait"`
	EstimateError float64 `json:"estimate_error" db:"estimate_error"`

	// MeanShare is the observed time-average CPU share on the run's node
	// across its extent — the contention component's evidence.
	MeanShare float64 `json:"mean_share" db:"mean_share"`
	// Dominant names the largest positive component (CompNone when the
	// run has nothing to blame).
	Dominant string `json:"dominant" db:"dominant"`
	// Interrupted marks runs whose span was closed by EndOpen (the
	// campaign ended mid-run); their extent is what was observed.
	Interrupted bool `json:"interrupted,omitempty" db:"interrupted"`

	Path []Segment `json:"path,omitempty"`
}

// Component returns a blame component by name (0 for unknown names).
func (r *RunBlame) Component(name string) float64 {
	switch name {
	case CompQueueWait:
		return r.QueueWait
	case CompContention:
		return r.Contention
	case CompFailure:
		return r.Failure
	case CompUpstreamWait:
		return r.UpstreamWait
	case CompEstimateError:
		return r.EstimateError
	}
	return 0
}

// BlameSum returns the five components' sum — equal to Lateness up to
// float noise, by construction.
func (r *RunBlame) BlameSum() float64 {
	return r.QueueWait + r.Contention + r.Failure + r.UpstreamWait + r.EstimateError
}

// DayBlame aggregates one campaign day's blame across all runs. Only
// positive contributions count: blame explains lateness, and one run's
// early start must not cancel another's queueing.
type DayBlame struct {
	Day  int `json:"day"`
	Runs int `json:"runs"`
	// Lateness is the summed positive lateness of the day's runs.
	Lateness   float64            `json:"lateness"`
	Components map[string]float64 `json:"components"`
	Dominant   string             `json:"dominant"`
}

// Report is one forensics pass's full result, served by /api/forensics
// and rendered by `foreman -blame`.
type Report struct {
	Runs []RunBlame `json:"runs"`
	Days []DayBlame `json:"days"`
}

// runKey formats the conventional "forecast/day" key.
func runKey(forecastName string, day int) string {
	return fmt.Sprintf("%s/%d", forecastName, day)
}

// pathEps tolerates float noise when chaining span endpoints.
const pathEps = 1e-9

// Analyze reconstructs every run's causal chain from the trace and
// decomposes its lateness. Spans are matched to plan entries on
// (forecast, day); runs the trace never saw are skipped (nothing
// observed, nothing to blame). Results are ordered by (day, forecast).
func Analyze(in Input) (*Report, error) {
	plan := make(map[string]PlanEntry, len(in.Plan))
	for _, p := range in.Plan {
		if p.Forecast == "" {
			return nil, fmt.Errorf("forensics: plan entry with empty forecast")
		}
		plan[runKey(p.Forecast, p.Day)] = p
	}

	// Index the trace once: run spans anchor runs, by id; each run's
	// child simulation/product spans reconstruct what was executing
	// inside it. The children are positions into in.Spans, in trace
	// order, one shared block grouped by run (a counting sort).
	spans := in.Spans
	var runs []int32
	group := make(map[int64]int32) // run span id → its children's group
	for i := range spans {
		if spans[i].Cat == "run" {
			if _, ok := group[spans[i].ID]; !ok {
				group[spans[i].ID] = int32(len(group))
			}
			runs = append(runs, int32(i))
		}
	}
	of := make([]int32, len(spans)) // 1 + a child's group, 0 for any other span
	starts := make([]int32, len(group)+1)
	for i := range spans {
		if s := &spans[i]; s.Cat == "simulation" || s.Cat == "product" {
			if g, ok := group[s.Parent]; ok {
				of[i] = g + 1
				starts[g+1]++
			}
		}
	}
	for g := 1; g < len(starts); g++ {
		starts[g] += starts[g-1]
	}
	block := make([]int32, starts[len(group)])
	next := slices.Clone(starts)
	for i, g := range of {
		if g > 0 {
			block[next[g-1]] = int32(i)
			next[g-1]++
		}
	}

	rep := &Report{}
	for _, ri := range runs {
		rs := &spans[ri]
		forecastName := rs.Args["forecast"]
		if forecastName == "" {
			forecastName = rs.Name
		}
		day := 0
		if d := rs.Args["day"]; d != "" {
			n, err := strconv.Atoi(d)
			if err != nil {
				return nil, fmt.Errorf("forensics: run span %d (%s) has non-integer day %q", rs.ID, rs.Name, d)
			}
			day = n
		}
		node := rs.Args["node"]
		if node == "" {
			node = rs.Track
		}
		if rs.End < rs.Start {
			return nil, fmt.Errorf("forensics: run span %d (%s) ends before it starts", rs.ID, rs.Name)
		}

		g := group[rs.ID]
		kids := block[starts[g]:starts[g+1]]
		busy := clipUnion(spans, kids, rs.Start, rs.End)
		var busySecs float64
		for _, iv := range busy {
			busySecs += iv[1] - iv[0]
		}

		b := RunBlame{
			Forecast:    forecastName,
			Day:         day,
			Node:        node,
			Start:       rs.Start,
			End:         rs.End,
			MeanShare:   in.Timeline.MeanShareOver(node, rs.Start, rs.End),
			Interrupted: rs.Args["interrupted"] == "true",
			Path:        criticalPath(rs, spans, kids),
		}

		extent := rs.End - rs.Start
		b.UpstreamWait = math.Max(0, extent-busySecs)
		b.Failure = math.Min(in.Timeline.DownSecsOver(node, rs.Start, rs.End), busySecs)
		executing := busySecs - b.Failure
		b.Contention = (1 - b.MeanShare) * executing
		workSecs := b.MeanShare * executing // effective seconds at share 1

		if p, ok := plan[runKey(forecastName, day)]; ok && p.End > p.Start {
			b.Planned = true
			b.PlannedStart = p.Start
			b.PlannedEnd = p.End
			b.Deadline = p.Deadline
			b.QueueWait = rs.Start - p.Start
			b.EstimateError = workSecs - (p.End - p.Start)
			if p.Deadline > 0 {
				b.DeadlineMiss = math.Max(0, rs.End-p.Deadline)
			}
		} else {
			// Unplanned: hold the run against its own effective work, so
			// lateness becomes pure overhead (wait + failure + contention).
			b.PlannedStart = rs.Start
			b.PlannedEnd = rs.Start + workSecs
		}
		b.Lateness = rs.End - b.PlannedEnd
		b.Dominant = dominantComponent(&b)
		rep.Runs = append(rep.Runs, b)
	}

	sort.Slice(rep.Runs, func(i, j int) bool {
		if rep.Runs[i].Day != rep.Runs[j].Day {
			return rep.Runs[i].Day < rep.Runs[j].Day
		}
		return rep.Runs[i].Forecast < rep.Runs[j].Forecast
	})
	rep.Days = aggregateDays(rep.Runs)
	return rep, nil
}

// dominantComponent names the largest strictly positive component.
func dominantComponent(b *RunBlame) string {
	best, bestV := CompNone, 0.0
	for _, c := range Components() {
		if v := b.Component(c); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// aggregateDays folds per-run blame into per-day totals, positive
// contributions only.
func aggregateDays(runs []RunBlame) []DayBlame {
	byDay := make(map[int]*DayBlame)
	var days []int
	for i := range runs {
		r := &runs[i]
		d, ok := byDay[r.Day]
		if !ok {
			d = &DayBlame{Day: r.Day, Components: make(map[string]float64, 5)}
			byDay[r.Day] = d
			days = append(days, r.Day)
		}
		d.Runs++
		d.Lateness += math.Max(0, r.Lateness)
		for _, c := range Components() {
			if v := r.Component(c); v > 0 {
				d.Components[c] += v
			}
		}
	}
	sort.Ints(days)
	out := make([]DayBlame, 0, len(days))
	for _, day := range days {
		d := byDay[day]
		best, bestV := CompNone, 0.0
		for _, c := range Components() {
			if v := d.Components[c]; v > bestV {
				best, bestV = c, v
			}
		}
		d.Dominant = best
		out = append(out, *d)
	}
	return out
}

// clipUnion returns the union of the child spans' intervals (spans at
// positions kids) clipped to [lo, hi], as sorted disjoint [start, end]
// pairs — the time at least one piece of the run (simulation increment
// stream, product task) was submitted to a node. Everything outside the
// union is upstream wait.
func clipUnion(spans []telemetry.Span, kids []int32, lo, hi float64) [][2]float64 {
	ivs := make([][2]float64, 0, len(kids))
	for _, p := range kids {
		k := &spans[p]
		s, e := math.Max(k.Start, lo), math.Min(k.End, hi)
		if e > s {
			ivs = append(ivs, [2]float64{s, e})
		}
	}
	if len(ivs) > 1 {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	}
	var out [][2]float64
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			if iv[1] > out[n-1][1] {
				out[n-1][1] = iv[1]
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// criticalPath walks the run's child spans (spans at positions kids)
// backward from its end: at each point the chain adopts the child that
// finished last at or before the current frontier — the span that gated
// progress — and any gap between it and the frontier becomes a wait
// segment (the run existed but none of its work was executing: blocked
// on dataflow inputs or dispatch). The result covers [run.Start,
// run.End] and reads forward in Seq order.
func criticalPath(run *telemetry.Span, spans []telemetry.Span, kids []int32) []Segment {
	node := run.Args["node"]
	if node == "" {
		node = run.Track
	}
	if run.End <= run.Start {
		return nil
	}
	// Sort the overlapping children's positions by end time so the
	// backward walk can scan for the latest finisher at or before the
	// frontier. sort.Slice permutes by the comparisons alone, so ties
	// keep the order they had when it sorted the spans themselves.
	sorted := make([]int32, 0, len(kids))
	for _, p := range kids {
		if k := &spans[p]; math.Min(k.End, run.End) > math.Max(k.Start, run.Start) {
			sorted = append(sorted, p)
		}
	}
	if len(sorted) > 1 {
		sort.Slice(sorted, func(i, j int) bool {
			a, b := &spans[sorted[i]], &spans[sorted[j]]
			if a.End != b.End {
				return a.End < b.End
			}
			return a.Start < b.Start
		})
	}

	var rev []Segment
	frontier := run.End
	idx := len(sorted) - 1
	for frontier > run.Start+pathEps {
		// Latest-finishing child at or before the frontier.
		for idx >= 0 && spans[sorted[idx]].End > frontier+pathEps {
			idx--
		}
		if idx < 0 {
			rev = append(rev, Segment{Kind: "wait", Name: "waiting", Node: node,
				Start: run.Start, End: frontier})
			break
		}
		k := &spans[sorted[idx]]
		kStart := math.Max(k.Start, run.Start)
		if kStart >= frontier-pathEps {
			// Degenerate (zero-length after clipping): skip, keep walking.
			idx--
			continue
		}
		kEnd := math.Min(k.End, frontier)
		if kEnd < frontier-pathEps {
			rev = append(rev, Segment{Kind: "wait", Name: "waiting", Node: node,
				Start: kEnd, End: frontier})
		}
		kNode := k.Track
		if kNode == "" {
			kNode = node
		}
		rev = append(rev, Segment{Kind: k.Cat, Name: k.Name, Node: kNode,
			Start: kStart, End: kEnd})
		frontier = kStart
	}
	out := make([]Segment, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
		out[i].Seq = i
	}
	return out
}
