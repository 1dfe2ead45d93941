package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// plannerBenchPlant builds the fleet-scale drop-loop scenario: nRuns
// deadline runs spread over nNodes two-CPU nodes, deliberately
// over-committed (~1.5× the daily window) so BuildSchedule's drop loop
// has to shed a large fraction of the plan one victim at a time — the
// worst case the incremental engine exists for. Deterministic, so the
// incremental and full-repredict sides see identical inputs.
func plannerBenchPlant(nNodes, nRuns int) ([]NodeInfo, []Run) {
	nodes := make([]NodeInfo, nNodes)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: fmt.Sprintf("node%03d", i), CPUs: 2, Speed: 1}
	}
	runs := make([]Run, nRuns)
	perNode := nRuns / nNodes
	if perNode < 1 {
		perNode = 1
	}
	// ~1.5× the 172800 capacity-seconds window per node, varied per run so
	// work ties are rare and the decreasing heuristics stay busy.
	meanWork := 1.5 * 172800 / float64(perNode)
	for i := range runs {
		runs[i] = Run{
			Name:     fmt.Sprintf("run%04d", i),
			Work:     meanWork * (0.5 + float64(i%perNode)/float64(perNode)),
			Start:    float64((i % 8) * 900),
			Deadline: 86400,
			Priority: i % 10,
		}
	}
	return nodes, runs
}

// sessionPlant is an operator planning session's plant and day: 200
// nodes, every fifth with 4 CPUs and the rest with 2, at speeds 1, 1.25
// and 1.5 in turn, and 2000 seeded runs starting 1–6 hours after midnight
// with the day's deadline.
func sessionPlant() ([]NodeInfo, []Run) {
	nodes := make([]NodeInfo, 200)
	for i := range nodes {
		cpus := 2
		if i%5 == 4 {
			cpus = 4
		}
		nodes[i] = NodeInfo{Name: fmt.Sprintf("node%03d", i), CPUs: cpus, Speed: 1 + 0.25*float64(i%3)}
	}
	rng := rand.New(rand.NewSource(1))
	runs := make([]Run, 2000)
	for i := range runs {
		runs[i] = Run{
			Name:     fmt.Sprintf("fc-%04d", i),
			Work:     math.Round(8000 + 24000*rng.Float64()),
			Start:    math.Round((1 + 5*rng.Float64()) * 3600),
			Deadline: 86400,
			Priority: 1 + rng.Intn(9),
			PrevNode: nodes[i%len(nodes)].Name,
		}
	}
	return nodes, runs
}

// benchDropLoop runs one full BuildSchedule pass over the scenario.
func benchDropLoop(nodes []NodeInfo, runs []Run, fullRepredict bool) *Schedule {
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{
		Heuristic:     WorstFitDecreasing,
		AllowDrop:     true,
		fullRepredict: fullRepredict,
	})
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkDropLoopIncremental is the 200-node × 2000-run drop loop with
// the incremental engine: each drop re-sweeps only the victim's node.
func BenchmarkDropLoopIncremental(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchDropLoop(nodes, runs, false)
		b.ReportMetric(float64(len(s.Dropped)), "drops/op")
	}
}

// BenchmarkDropLoopFullRepredict is the same scenario with a validated
// full-plan sweep after every drop — the pre-incremental behaviour, kept
// as the baseline the speedup gate measures against.
func BenchmarkDropLoopFullRepredict(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDropLoop(nodes, runs, true)
	}
}

// BenchmarkPredictFull times one full-plan prediction at fleet scale —
// the path the bounded worker pool parallelizes.
func BenchmarkPredictFull(b *testing.B) {
	nodes, runs := plannerBenchPlant(200, 2000)
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		b.Fatal(err)
	}
	plan := &Plan{Nodes: nodes, Runs: runs, Assign: assign}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRescheduleFullReshuffle times a node failure answered by
// re-packing the whole session plant (worst fit decreasing) and
// re-sweeping the nodes whose run set changed.
func BenchmarkRescheduleFullReshuffle(b *testing.B) {
	nodes, runs := sessionPlant()
	s, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: WorstFitDecreasing, AllowDrop: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RescheduleAfterFailure(s, nodes[i%len(nodes)].Name, FullReshuffle, WorstFitDecreasing); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDropLoopIncrementalMatchesFullRepredict is the always-on
// cross-validation gate at a size small enough for every `go test` run:
// the incremental drop loop must drop the same victims and predict the
// same completions as the full-repredict baseline.
func TestDropLoopIncrementalMatchesFullRepredict(t *testing.T) {
	nodes, runs := plannerBenchPlant(20, 200)
	inc := benchDropLoop(nodes, runs, false)
	full := benchDropLoop(nodes, runs, true)
	if len(inc.Dropped) == 0 {
		t.Fatal("scenario did not exercise the drop loop")
	}
	if !reflect.DeepEqual(inc.Dropped, full.Dropped) {
		t.Fatalf("dropped sets diverge: incremental %v, full %v", inc.Dropped, full.Dropped)
	}
	if !sameCompletion(inc.Prediction.Completion, full.Prediction.Completion) {
		t.Fatal("incremental and full predictions diverge")
	}
	if !reflect.DeepEqual(inc.Plan.Assign, full.Plan.Assign) {
		t.Fatal("assignments diverge")
	}
}

// TestEmitPlannerBenchReport measures the incremental engine's speedup on
// the 200-node × 2000-run drop loop and writes a machine-readable report
// to the file named by BENCH_OUT; `make bench` sets it and CI uploads the
// result as an artifact. Without BENCH_OUT the test is skipped.
//
// Methodology (same as the usage sampler's report): full-repredict and
// incremental passes run as ABBA pairs — the order within a pair
// alternates so heap growth and machine drift cancel instead of always
// penalizing one side — and the reported speedup is the median of the
// per-pair ratios. The job fails if the two modes' predictions diverge or
// the speedup drops below the 5× floor.
func TestEmitPlannerBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set")
	}
	nodes, runs := plannerBenchPlant(200, 2000)

	// Equivalence gate first: a fast wrong answer must fail the job.
	inc := benchDropLoop(nodes, runs, false)
	full := benchDropLoop(nodes, runs, true)
	equivalent := reflect.DeepEqual(inc.Dropped, full.Dropped) &&
		sameCompletion(inc.Prediction.Completion, full.Prediction.Completion)
	if !equivalent {
		t.Errorf("incremental and full-repredict drop loops diverge")
	}

	const pairs = 6
	var fullSec, incSec, ratios []float64
	for i := 0; i < pairs; i++ {
		var f, n float64
		if i%2 == 0 {
			t0 := time.Now()
			benchDropLoop(nodes, runs, true)
			f = time.Since(t0).Seconds()
			t1 := time.Now()
			benchDropLoop(nodes, runs, false)
			n = time.Since(t1).Seconds()
		} else {
			t1 := time.Now()
			benchDropLoop(nodes, runs, false)
			n = time.Since(t1).Seconds()
			t0 := time.Now()
			benchDropLoop(nodes, runs, true)
			f = time.Since(t0).Seconds()
		}
		fullSec = append(fullSec, f)
		incSec = append(incSec, n)
		ratios = append(ratios, f/n)
	}
	sort.Float64s(ratios)
	speedup := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	report := map[string]any{
		"scenario":            "drop-loop",
		"nodes":               len(nodes),
		"runs":                len(runs),
		"drops":               len(inc.Dropped),
		"pairs":               pairs,
		"full_seconds":        mean(fullSec),
		"incremental_seconds": mean(incSec),
		"speedup":             speedup,
		"speedup_floor":       5.0,
		"predictions_agree":   equivalent,
	}
	if speedup < 5.0 {
		t.Errorf("incremental speedup %.1f× below the 5× floor", speedup)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", out, data)
}
