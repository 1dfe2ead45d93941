package forensics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/usage"
)

// benchReplay drives a traced, sampled campaign at forensic scale:
// nodes×days runs (one per node per day, runsWanted total), each a run
// span wrapping a chained-increment simulation on its node, with the
// usage sampler observing the whole cluster. When analyze is true a full
// forensics pass (Analyze over the trace + timeline) follows the replay —
// the delta against analyze=false is what the 5% budget bounds.
func benchReplay(nodes, runsWanted, incs int, analyze bool) int {
	days := (runsWanted + nodes - 1) / nodes
	e := sim.NewEngine()
	cl := cluster.New(e)
	tel := telemetry.New()
	tel.SetClock(e.Now)
	tr := tel.Trace()

	names := make([]string, nodes)
	cn := make([]*cluster.Node, nodes)
	for i := range cn {
		names[i] = fmt.Sprintf("bn%03d", i)
		cn[i] = cl.AddNode(names[i], 2, 1.0)
	}
	sampler := usage.NewSampler(cl, usage.Options{Interval: 900})
	horizon := float64(days) * 86400
	sampler.Start(horizon)

	var plan []PlanEntry
	root := tr.Begin("campaign", "bench", "factory", 0)
	runs := 0
	for d := 0; d < days && runs < runsWanted; d++ {
		for f := 0; f < nodes && runs < runsWanted; f++ {
			f, d := f, d
			runs++
			name := fmt.Sprintf("bf%03d", f)
			start := float64(d)*86400 + float64(f%8)*450
			plan = append(plan, PlanEntry{
				Forecast: name, Day: d + 1, Node: names[f],
				Start: start, End: start + 3000, Deadline: start + 7200,
			})
			e.Scope("test").At(start, func() {
				rs := tr.Begin("run", name, names[f], root)
				tr.SetArg(rs, "forecast", name)
				tr.SetArg(rs, "day", fmt.Sprint(d+1))
				tr.SetArg(rs, "node", names[f])
				ss := tr.Begin("simulation", "sim "+name, names[f], rs)
				var next func(i int)
				next = func(i int) {
					if i >= incs {
						tr.End(ss)
						tr.End(rs)
						return
					}
					cn[f].Submit(fmt.Sprintf("%s[%d]", name, i),
						3000.0/float64(incs), func() { next(i + 1) })
				}
				next(0)
			})
		}
	}
	e.Run()
	tr.End(root)
	sampler.Finalize(e.Now())

	if !analyze {
		return 0
	}
	// The live pass queries the sampler in place — no sample export.
	rep, err := Analyze(Input{
		Spans:    tr.Spans(),
		Plan:     plan,
		Timeline: sampler,
	})
	if err != nil {
		panic(err)
	}
	return len(rep.Runs)
}

// BenchmarkReplayBaseline is the 200-node × 2000-run traced replay with
// no forensics pass: the denominator of the overhead budget.
func BenchmarkReplayBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchReplay(200, 2000, 96, false)
	}
}

// BenchmarkReplayAnalyzed is the same replay followed by a full forensics
// pass (critical paths + blame decomposition for all 2000 runs).
func BenchmarkReplayAnalyzed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := benchReplay(200, 2000, 96, true); n != 2000 {
			b.Fatalf("analyzed %d runs, want 2000", n)
		}
	}
}

// BenchmarkAnalyze is the forensics pass alone over an observed fig-8
// campaign's trace, ~192k spans recorded through a tracer in the
// campaign's shape (see campaignTrace), with a plan entry per run and a
// stub share source.
func BenchmarkAnalyze(b *testing.B) {
	spans := campaignTrace().Spans()
	var plan []PlanEntry
	for _, s := range spans {
		if s.Cat == "run" {
			day, _ := strconv.Atoi(s.Args["day"])
			plan = append(plan, PlanEntry{Forecast: s.Args["forecast"], Day: day, Node: s.Track,
				Start: s.Start - 600, End: s.Start + 30000, Deadline: s.Start + 40000})
		}
	}
	in := Input{Spans: spans, Plan: plan, Timeline: fixedShares{share: 0.8, down: 60}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err := Analyze(in); err != nil || len(rep.Runs) != 282 {
			b.Fatalf("Analyze: %v", err)
		}
	}
}

// campaignTrace records the shape of an observed fig-8 campaign's trace:
// 76 day spans, 282 runs on 5 nodes, each a simulation span and 680
// product-task spans interleaved with its day's other runs, and 316
// harvest passes: ~192k spans, 689 names on 7 tracks. Only run spans
// carry annotations, as in the campaign. statsdb's BenchmarkLoadSpans
// loads the same trace.
func campaignTrace() *telemetry.Tracer {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	campaign := tr.Begin("campaign", "campaign-2005", "factory", 0)
	var prods [6]string
	for i := range prods {
		prods[i] = fmt.Sprintf("prod:p%d", i)
	}
	pass := 0
	for day := 1; day <= 76; day++ {
		clock = float64(day-1) * 86400
		daySpan := tr.Begin("day", fmt.Sprintf("day-%03d", day), "factory", campaign)
		var runs, sims []int64
		for r := 0; r < 3 || r < 4 && day <= 54; r++ { // 54 days of 4 runs, 22 of 3
			fc, node := fmt.Sprintf("fc-%d", (day+r)%8), fmt.Sprintf("fnode%02d", 1+(day+r)%5)
			run := tr.Begin("run", fmt.Sprintf("%s/%d", fc, day), node, daySpan)
			tr.SetArg(run, "forecast", fc)
			tr.SetArg(run, "day", fmt.Sprint(day))
			tr.SetArg(run, "node", node)
			runs, sims = append(runs, run), append(sims, tr.Begin("simulation", "sim:"+fc, "", run))
		}
		clock += 3600
		for _, sim := range sims {
			tr.End(sim)
		}
		// Each run keeps six product tasks in flight; a step ends one at
		// random and starts the next, so tasks overlap and end out of
		// start order.
		open := make([][6]int64, len(runs))
		x := uint32(day)
		for p := 0; p < 680; p++ {
			clock += 60
			x = x*1103515245 + 12345
			slot := x >> 16 % 6
			for r, run := range runs {
				tr.End(open[r][slot])
				open[r][slot] = tr.Begin("product", prods[slot], "", run)
			}
			if p%170 == 0 || p == 85 && day%6 == 0 { // 4 passes a day, 5 every 6th
				pass++
				tr.End(tr.Begin("harvest", fmt.Sprintf("pass-%03d", pass), "harvest", 0))
			}
		}
		clock += 600
		for r, run := range runs {
			for _, id := range open[r] {
				tr.End(id)
			}
			tr.End(run)
		}
		tr.End(daySpan)
	}
	tr.End(campaign)
	return tr
}

// TestEmitBenchReport measures the forensics pass's cost on a 200-node ×
// 2000-run campaign replay and writes a machine-readable report to the
// file named by BENCH_OUT; `make bench` sets it and CI uploads the result
// as an artifact. Without BENCH_OUT the test is skipped.
//
// Methodology mirrors the usage bench: plain and analyzed replays run as
// ABBA pairs so heap growth and machine drift cancel, and the reported
// overhead is the median of per-pair ratios.
func TestEmitBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set")
	}
	const (
		pairs = 8
		nodes = 200
		runs  = 2000
		incs  = 96
	)
	benchReplay(nodes, runs, incs, false) // warm-up
	benchReplay(nodes, runs, incs, true)
	var base, analyzed, ratios []float64
	for i := 0; i < pairs; i++ {
		var b, a float64
		if i%2 == 0 {
			t0 := time.Now()
			benchReplay(nodes, runs, incs, false)
			b = time.Since(t0).Seconds()
			t1 := time.Now()
			benchReplay(nodes, runs, incs, true)
			a = time.Since(t1).Seconds()
		} else {
			t1 := time.Now()
			benchReplay(nodes, runs, incs, true)
			a = time.Since(t1).Seconds()
			t0 := time.Now()
			benchReplay(nodes, runs, incs, false)
			b = time.Since(t0).Seconds()
		}
		base = append(base, b)
		analyzed = append(analyzed, a)
		ratios = append(ratios, 100*(a-b)/b)
	}
	sort.Float64s(ratios)
	overhead := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	report := map[string]any{
		"scenario":            "replay-200x2000",
		"nodes":               nodes,
		"runs":                runs,
		"pairs":               pairs,
		"baseline_seconds":    mean(base),
		"analyzed_seconds":    mean(analyzed),
		"overhead_pct":        overhead,
		"overhead_budget_pct": 5.0,
	}
	if overhead > 5 {
		t.Errorf("forensics overhead %.1f%% exceeds the 5%% budget", overhead)
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
