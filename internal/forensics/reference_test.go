package forensics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/telemetry"
)

// TestAnalyzeMatchesReference holds Analyze to referenceAnalyze over
// seeded random traces: children out of trace order, ties on End and on
// (End, Start) in runs of more than 12 children (so pdqsort's order of
// ties matters), children past their run's extent, runs without
// children, interrupted runs, both child categories, spans whose parent
// is not a run, and now and then a bad day annotation or plan entry.
func TestAnalyzeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 600; seed++ {
		in := randomInput(rand.New(rand.NewSource(seed)))
		got, gotErr := Analyze(in)
		want, wantErr := referenceAnalyze(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: report differs from the reference's\ngot  %+v\nwant %+v", seed, got, want)
		}
	}
}

// randomInput draws a trace of up to six runs under one day span, with a
// plan entry for most of them and a share source that varies by node.
func randomInput(rng *rand.Rand) Input {
	var spans []telemetry.Span
	id := int64(0)
	add := func(s telemetry.Span) int64 {
		id++
		s.ID = id
		spans = append(spans, s)
		return id
	}
	grid := func(lo, hi float64) float64 { return lo + 10*math.Floor(rng.Float64()*(hi-lo)/10) }
	nodes := []string{"n1", "n2", "n3"}
	day := add(telemetry.Span{Cat: "day", Name: "day-001", Track: "factory", End: 86400})
	var in Input
	for r := rng.Intn(7); r > 0; r-- {
		fc := fmt.Sprintf("f%d", rng.Intn(4))
		node := nodes[rng.Intn(len(nodes))]
		start := grid(0, 2000)
		end := start + grid(0, 3000)
		args := map[string]string{"forecast": fc, "day": strconv.Itoa(1 + rng.Intn(3)), "node": node}
		switch rng.Intn(12) {
		case 0:
			delete(args, "forecast")
		case 1:
			delete(args, "node")
		case 2:
			args["interrupted"] = "true"
		case 3:
			delete(args, "day")
		}
		if rng.Intn(150) == 0 {
			args["day"] = "second"
		}
		run := add(telemetry.Span{Parent: day, Cat: "run", Name: fc + "/run", Track: node, Start: start, End: end, Args: args})
		if rng.Intn(4) > 0 {
			p := PlanEntry{Forecast: fc, Day: 1 + rng.Intn(3), Node: node, Start: grid(0, 2000)}
			p.End = p.Start + grid(-500, 3000)
			if rng.Intn(2) == 0 {
				p.Deadline = grid(1000, 6000)
			}
			in.Plan = append(in.Plan, p)
		}
		kids := rng.Intn(3)
		if rng.Intn(3) > 0 {
			kids = 13 + rng.Intn(40)
		}
		for k := 0; k < kids; k++ {
			ks := grid(start-300, end+100)
			ke := ks + grid(0, 600)
			if rng.Intn(3) == 0 && k > 0 {
				ke = spans[len(spans)-1].End // a tie on End, or on End and Start
				if rng.Intn(2) == 0 {
					ks = spans[len(spans)-1].Start
				}
			}
			cat := "product"
			if rng.Intn(4) == 0 {
				cat = "simulation"
			}
			track := node
			if rng.Intn(5) == 0 {
				track = ""
			}
			add(telemetry.Span{Parent: run, Cat: cat, Name: fmt.Sprintf("%s-%d", cat, k), Track: track, Start: ks, End: ke})
		}
		// Spans the analysis must pass over: another category under the
		// run, a child of the day span, a child of no span.
		add(telemetry.Span{Parent: run, Cat: "transfer", Name: "rsync", Track: "link", Start: end, End: end + 60})
		add(telemetry.Span{Parent: day, Cat: "product", Name: "orphan", Track: node, Start: start, End: end})
		add(telemetry.Span{Parent: id + 100, Cat: "simulation", Name: "lost", Track: node, Start: start, End: end})
	}
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	if rng.Intn(100) == 0 {
		in.Plan = append(in.Plan, PlanEntry{})
	}
	in.Spans = spans
	in.Timeline = nodeShares{"n1": {0.9, 0}, "n2": {0.6, 120}, "n3": {1, 900}}
	return in
}

// nodeShares is a ShareSource with a fixed share and down time per node;
// a node it lacks reads share 1 and no down time.
type nodeShares map[string][2]float64

func (n nodeShares) MeanShareOver(node string, _, _ float64) float64 {
	if v, ok := n[node]; ok {
		return v[0]
	}
	return 1
}

func (n nodeShares) DownSecsOver(node string, start, end float64) float64 {
	return math.Min(n[node][1], end-start)
}

// referenceAnalyze is Analyze as it was when it copied the trace: each
// run's child spans into a per-run slice, which referenceCriticalPath
// copies and sorts again. Analyze must return what it returns.
func referenceAnalyze(in Input) (*Report, error) {
	plan := make(map[string]PlanEntry, len(in.Plan))
	for _, p := range in.Plan {
		if p.Forecast == "" {
			return nil, fmt.Errorf("forensics: plan entry with empty forecast")
		}
		plan[runKey(p.Forecast, p.Day)] = p
	}

	// Index the trace: run spans anchor runs; child simulation/product
	// spans reconstruct what was executing inside them.
	children := make(map[int64][]telemetry.Span)
	var runs []telemetry.Span
	for _, s := range in.Spans {
		switch s.Cat {
		case "run":
			runs = append(runs, s)
		case "simulation", "product":
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	rep := &Report{}
	for _, rs := range runs {
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

		kids := children[rs.ID]
		busy := referenceClipUnion(kids, rs.Start, rs.End)
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
			Path:        referenceCriticalPath(rs, kids),
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

// referenceClipUnion is clipUnion over copied child spans.
func referenceClipUnion(kids []telemetry.Span, lo, hi float64) [][2]float64 {
	ivs := make([][2]float64, 0, len(kids))
	for _, k := range kids {
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

// referenceCriticalPath is criticalPath over copied child spans, sorted
// as copies.
func referenceCriticalPath(run telemetry.Span, kids []telemetry.Span) []Segment {
	node := run.Args["node"]
	if node == "" {
		node = run.Track
	}
	if run.End <= run.Start {
		return nil
	}
	// Sort by end time so the backward walk can scan for the latest
	// finisher at or before the frontier.
	sorted := make([]telemetry.Span, 0, len(kids))
	for _, k := range kids {
		if math.Min(k.End, run.End) > math.Max(k.Start, run.Start) {
			sorted = append(sorted, k)
		}
	}
	if len(sorted) > 1 {
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].End != sorted[j].End {
				return sorted[i].End < sorted[j].End
			}
			return sorted[i].Start < sorted[j].Start
		})
	}

	var rev []Segment
	frontier := run.End
	idx := len(sorted) - 1
	for frontier > run.Start+pathEps {
		// Latest-finishing child at or before the frontier.
		for idx >= 0 && sorted[idx].End > frontier+pathEps {
			idx--
		}
		if idx < 0 {
			rev = append(rev, Segment{Kind: "wait", Name: "waiting", Node: node,
				Start: run.Start, End: frontier})
			break
		}
		k := sorted[idx]
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
