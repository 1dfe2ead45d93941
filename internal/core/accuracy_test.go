package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/logs"
	"repro/internal/telemetry"
)

// accRecord is histRecord (estimate_test.go) with the mesh/timestep/code
// parameters held fixed, so only walltime and placement vary.
func accRecord(forecast string, day int, wall float64, node string) *logs.RunRecord {
	return histRecord(forecast, day, wall, node, 5760, 30000, 1)
}

func TestEvaluateEstimatesReplaysHistory(t *testing.T) {
	nodes := []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}, {Name: "n2", CPUs: 2, Speed: 0.5}}
	records := []*logs.RunRecord{
		// f stays on n1 with identical parameters: days 2 and 3 estimate
		// exactly from the preceding day.
		accRecord("f", 1, 40000, "n1"),
		accRecord("f", 2, 40000, "n1"),
		// Day 3 moved to the half-speed node, so the actual doubles; the
		// estimator knows the speeds and still predicts it exactly.
		accRecord("f", 3, 80000, "n2"),
		// Day 4 back on n1, but 10% slower than history predicts.
		accRecord("f", 4, 44000, "n1"),
		// A single-record forecast yields no replayable sample.
		accRecord("lonely", 1, 1000, "n1"),
	}
	acc := EvaluateEstimates(records, nodes)
	if len(acc.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(acc.Samples))
	}
	for i, wantErr := range []float64{0, 0, 100.0 / 11.0} {
		s := acc.Samples[i]
		if math.Abs(s.AbsPctError()-wantErr) > 1e-9 {
			t.Fatalf("sample %d (day %d): error %.4f%%, want %.4f%%", i, s.Day, s.AbsPctError(), wantErr)
		}
	}
	wantMAPE := (100.0 / 11.0) / 3
	if math.Abs(acc.MAPE-wantMAPE) > 1e-9 {
		t.Fatalf("MAPE = %v, want %v", acc.MAPE, wantMAPE)
	}
}

// evaluatePerSample is the replay as first written, kept as the reference
// EvaluateEstimates must match: every sample builds a fresh Estimator over
// the records before it and asks it for the estimate.
func evaluatePerSample(records []*logs.RunRecord, nodes []NodeInfo) EstimateAccuracy {
	byForecast := make(map[string][]*logs.RunRecord)
	for _, r := range records {
		if r.Status != logs.StatusCompleted || r.Walltime <= 0 {
			continue
		}
		byForecast[r.Forecast] = append(byForecast[r.Forecast], r)
	}
	names := make([]string, 0, len(byForecast))
	for name := range byForecast {
		names = append(names, name)
	}
	sort.Strings(names)
	var acc EstimateAccuracy
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
			target, prev := rs[i], rs[i-1]
			adjust := 1.0
			if prev.CodeFactor > 0 && target.CodeFactor > 0 {
				adjust = target.CodeFactor / prev.CodeFactor
			}
			est, err := NewEstimator(rs[:i], nodes).Estimate(Request{
				Forecast:  name,
				Timesteps: target.Timesteps,
				MeshSides: target.MeshSides,
				Node:      target.Node,
				Adjust:    adjust,
			})
			if err != nil {
				continue
			}
			s := EstimateSample{Forecast: name, Year: target.Year, Day: target.Day, Node: target.Node,
				Predicted: est.Seconds, Actual: target.Walltime}
			acc.Samples = append(acc.Samples, s)
			errSum += s.AbsPctError()
		}
	}
	if len(acc.Samples) > 0 {
		acc.MAPE = errSum / float64(len(acc.Samples))
	}
	return acc
}

// replayHistory generates a shuffled history that exercises every branch
// of the replay: code-version changes (including an unknown factor), node
// moves (including to a node the plant does not list and to one of speed
// 0), mesh and timestep changes (including large ones and missing data),
// running and zero-walltime records, two years, ties on (year, day), and
// forecasts with more runs than the sort's insertion-sort cutoff of 12.
func replayHistory(rng *rand.Rand) []*logs.RunRecord {
	nodes := []string{"n0", "n1", "n2", "ghost", "idle"}
	var records []*logs.RunRecord
	forecasts := 1 + rng.Intn(6)
	for f := 0; f < forecasts; f++ {
		node, factor, ts, sides := nodes[rng.Intn(3)], 1.0, 5760, 30000
		runs := rng.Intn(30)
		for k := 0; k < runs; k++ {
			if rng.Intn(5) == 0 {
				node = nodes[rng.Intn(len(nodes))]
			}
			if rng.Intn(6) == 0 {
				factor = []float64{0, 0.9, 1, 1.1}[rng.Intn(4)]
			}
			if rng.Intn(6) == 0 {
				sides = []int{0, 15000, 30000, 31000, 60000}[rng.Intn(5)]
			}
			if rng.Intn(6) == 0 {
				ts = []int{0, 2880, 5760, 11520}[rng.Intn(4)]
			}
			r := histRecord(fmt.Sprintf("f%d", f), 1+rng.Intn(8), 1000+math.Round(50000*rng.Float64()), node, ts, sides, factor)
			r.Year = 2005 + rng.Intn(2)
			switch rng.Intn(10) {
			case 0:
				r.Status = logs.StatusRunning
			case 1:
				r.Walltime = 0
			}
			records = append(records, r)
		}
	}
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	return records
}

func TestEvaluateEstimatesMatchesPerSampleReplay(t *testing.T) {
	// n0 is listed twice: the later speed wins, as in NewEstimator's map.
	nodes := []NodeInfo{
		{Name: "n0", CPUs: 2, Speed: 1}, {Name: "n1", CPUs: 2, Speed: 0.5},
		{Name: "n2", CPUs: 4, Speed: 1.5}, {Name: "n0", CPUs: 2, Speed: 1.25}, {Name: "idle", CPUs: 2},
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		records := replayHistory(rng)
		want := evaluatePerSample(records, nodes)
		got := EvaluateEstimates(records, nodes)
		if !reflect.DeepEqual(got.Samples, want.Samples) || math.Float64bits(got.MAPE) != math.Float64bits(want.MAPE) {
			t.Fatalf("trial %d: replay differs from the per-sample reference\ngot  %d samples, MAPE %v\nwant %d samples, MAPE %v",
				trial, len(got.Samples), got.MAPE, len(want.Samples), want.MAPE)
		}
	}
}

func TestEvaluateEstimatesAllocsIndependentOfPlantSize(t *testing.T) {
	plant := func(n int) []NodeInfo {
		nodes := make([]NodeInfo, n)
		for i := range nodes {
			nodes[i] = NodeInfo{Name: fmt.Sprintf("n%d", i), CPUs: 2, Speed: 1 + 0.25*float64(i%3)}
		}
		return nodes
	}
	var records []*logs.RunRecord
	for f := 0; f < 20; f++ {
		for d := 1; d <= 14; d++ {
			records = append(records, accRecord(fmt.Sprintf("f%02d", f), d, 40000+float64(100*d), fmt.Sprintf("n%d", (f+d/7)%3)))
		}
	}
	small, large := plant(3), plant(300)
	allocs := func(nodes []NodeInfo) float64 {
		return testing.AllocsPerRun(20, func() { EvaluateEstimates(records, nodes) })
	}
	if a3, a300 := allocs(small), allocs(large); a3 != a300 {
		t.Fatalf("EvaluateEstimates allocs: %v on 3 nodes, %v on 300; the replay must not rebuild per-node state per sample", a3, a300)
	}
}

func TestEvaluateEstimatesFeedsRegistry(t *testing.T) {
	tel := telemetry.New()
	SetTelemetry(tel)
	defer SetTelemetry(nil)

	nodes := []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}}
	records := []*logs.RunRecord{
		accRecord("f", 1, 40000, "n1"),
		accRecord("f", 2, 42000, "n1"),
	}
	EvaluateEstimates(records, nodes)

	reg := tel.Registry()
	lbl := telemetry.Labels{"forecast": "f", "day": "2"}
	if v := reg.Gauge("core_estimate_predicted_seconds", lbl).Value(); v != 40000 {
		t.Fatalf("predicted gauge = %v, want 40000", v)
	}
	if v := reg.Gauge("core_estimate_actual_seconds", lbl).Value(); v != 42000 {
		t.Fatalf("actual gauge = %v, want 42000", v)
	}
	if n := reg.Histogram("core_estimate_abs_pct_error", pctErrorBuckets, nil).Count(); n != 1 {
		t.Fatalf("error histogram count = %d, want 1", n)
	}
}

func TestPlannerTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	SetTelemetry(tel)
	defer SetTelemetry(nil)

	nodes := []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}, {Name: "n2", CPUs: 2, Speed: 1}}
	runs := []Run{
		{Name: "a", Work: 1000, Deadline: 86400},
		{Name: "b", Work: 2000, Deadline: 86400},
	}
	if _, err := BuildSchedule(nodes, runs, ScheduleOptions{Heuristic: FirstFitDecreasing}); err != nil {
		t.Fatal(err)
	}

	reg := tel.Registry()
	if v := reg.Counter("core_planner_invocations_total",
		telemetry.Labels{"pass": "schedule", "heuristic": "first-fit-decreasing"}).Value(); v != 1 {
		t.Fatalf("schedule invocations = %v, want 1", v)
	}
	if v := reg.Counter("core_planner_invocations_total",
		telemetry.Labels{"pass": "pack", "heuristic": "first-fit-decreasing"}).Value(); v != 1 {
		t.Fatalf("pack invocations = %v, want 1", v)
	}
	if v := reg.Counter("core_pack_iterations_total", nil).Value(); v <= 0 {
		t.Fatalf("pack iterations = %v, want > 0", v)
	}
	// Planner spans were recorded under the "planner" track.
	foundPack := false
	for _, s := range tel.Trace().Spans() {
		if s.Cat == "planner" && s.Name == "pack:first-fit-decreasing" {
			foundPack = true
			if s.Args["runs"] != "2" {
				t.Fatalf("pack span args = %v, want runs=2", s.Args)
			}
		}
	}
	if !foundPack {
		t.Fatal("no pack span recorded")
	}
}

// BenchmarkEvaluateEstimates replays the estimator at an operator's
// planning scale: 2000 forecasts × 14 days of history on 200 nodes, with
// node speeds, code-version changes and run-time noise varied by seed.
// Profile it with -cpuprofile.
func BenchmarkEvaluateEstimates(b *testing.B) {
	const nodes, forecasts, days = 200, 2000, 14
	plant := make([]NodeInfo, nodes)
	for i := range plant {
		plant[i] = NodeInfo{Name: fmt.Sprintf("node%03d", i), CPUs: 2, Speed: 1 + 0.25*float64(i%3)}
	}
	rng := rand.New(rand.NewSource(1))
	var records []*logs.RunRecord
	for f := 0; f < forecasts; f++ {
		node, factor := plant[f%nodes], 1.0
		for d := 1; d <= days; d++ {
			if rng.Float64() < 0.02 {
				factor = 0.9 + 0.2*rng.Float64()
			}
			wall := 40000 * factor / node.Speed * (1 + 0.05*rng.NormFloat64())
			records = append(records, histRecord(fmt.Sprintf("fc-%04d", f), d, wall, node.Name, 5760, 30000, factor))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc := EvaluateEstimates(records, plant); len(acc.Samples) != forecasts*(days-1) {
			b.Fatalf("%d samples, want %d", len(acc.Samples), forecasts*(days-1))
		}
	}
}
