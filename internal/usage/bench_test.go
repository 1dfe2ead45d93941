package usage

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/factory"
	"repro/internal/sim"
	"repro/internal/statsdb"
)

// benchCampaign drives a synthetic multi-day campaign: forecasts×days
// incremental runs (incs increments each) packed onto a small cluster,
// with enough co-location to keep the sampler's event path hot. When
// sampled is true a Sampler with the default interval observes the whole
// thing. Returns the final virtual time.
func benchCampaign(forecasts, days, incs int, sampled bool) float64 {
	e := sim.NewEngine()
	c := cluster.New(e)
	nodes := []*cluster.Node{
		c.AddNode("n1", 2, 1.0),
		c.AddNode("n2", 2, 1.0),
		c.AddNode("n3", 2, 0.8),
	}
	var s *Sampler
	horizon := float64(days) * 86400
	if sampled {
		s = NewSampler(c, Options{})
		s.Start(horizon)
	}
	for d := 0; d < days; d++ {
		for f := 0; f < forecasts; f++ {
			n := nodes[f%len(nodes)]
			name := fmt.Sprintf("f%02d", f)
			start := float64(d)*86400 + float64(f%4)*900
			e.Scope("test").At(start, func() {
				var next func(i int)
				next = func(i int) {
					if i >= incs {
						return
					}
					n.Submit(fmt.Sprintf("%s[%d/%d]", name, i, incs),
						20000.0/float64(incs), func() { next(i + 1) })
				}
				next(0)
			})
		}
	}
	e.Run()
	if s != nil {
		s.Finalize(e.Now())
	}
	return e.Now()
}

// benchFactory runs a fig8 factory campaign — the workload the sampler
// actually rides on, with estimation, planning, and log writing per day —
// optionally observed by a Sampler. days > 0 truncates the campaign for
// quick benchmarks; days <= 0 runs the standard campaign unmodified.
func benchFactory(days int, sampled bool) {
	cfg := factory.Figure8Scenario()
	if days > 0 {
		cfg.Days = days
		var kept []factory.Event
		for _, e := range cfg.Events {
			if e.EventDay() < cfg.StartDay+cfg.Days {
				kept = append(kept, e)
			}
		}
		cfg.Events = kept
	}
	c, err := factory.New(cfg)
	if err != nil {
		panic(err)
	}
	var s *Sampler
	if sampled {
		s = NewSampler(c.Cluster(), Options{})
		s.Start(c.Horizon())
	}
	c.Run()
	if s != nil {
		s.Finalize(c.Engine().Now())
	}
}

// BenchmarkCampaignBaseline is the synthetic event-churn workload with no
// sampler: nothing but cluster lifecycle events, the harshest possible
// denominator for sampler overhead.
func BenchmarkCampaignBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCampaign(8, 4, 24, false)
	}
}

// BenchmarkCampaignSampled is the same workload observed by a Sampler;
// the delta against Baseline is the sampler's raw event-path cost.
func BenchmarkCampaignSampled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCampaign(8, 4, 24, true)
	}
}

// BenchmarkFactoryBaseline is a 6-day fig8 factory campaign, unsampled.
func BenchmarkFactoryBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFactory(6, false)
	}
}

// BenchmarkFactorySampled is the 6-day fig8 campaign under observation;
// the delta against FactoryBaseline is the overhead the 5% budget is
// about.
func BenchmarkFactorySampled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFactory(6, true)
	}
}

// BenchmarkLoadSamples loads an observed fig-8 campaign's node_usage
// timeline into a fresh database, as its close-out does: 53,088 samples,
// 7,584 15-minute buckets on each of 7 nodes, in Sampler.Samples order
// (node by node).
func BenchmarkLoadSamples(b *testing.B) {
	var samples []Sample
	for n := 1; n <= 7; n++ {
		for i := 0; i < 7584; i++ {
			start := float64(i) * 900
			samples = append(samples, Sample{Node: fmt.Sprintf("fnode%02d", n), Start: start, End: start + 900,
				Utilization: float64(i%10) / 10, MeanShare: 1 - float64(i%4)/8, MeanActive: float64(i % 3),
				PeakActive: i % 4, ContentionSecs: float64(i%5) * 60, IdleSecs: float64(i%7) * 30})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSamples(statsdb.NewDB(), samples); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchReport measures the sampler's slowdown on the standard
// fig8 campaign and writes a machine-readable report to the file named
// by BENCH_OUT; `make bench` sets it and CI uploads the result as an
// artifact. Without BENCH_OUT the test is skipped.
//
// Methodology: baseline and sampled campaigns run as ABBA pairs (the
// order within a pair alternates so heap growth and machine drift cancel
// instead of always penalizing one side), and the reported overhead is
// the median of the per-pair ratios — a single noisy pair on a shared
// machine cannot swing it.
func TestEmitBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set")
	}
	const pairs = 8
	days := factory.Figure8Scenario().Days
	benchFactory(0, false) // warm-up
	benchFactory(0, true)
	var base, withSampler, ratios []float64
	for i := 0; i < pairs; i++ {
		var b, s float64
		if i%2 == 0 {
			t0 := time.Now()
			benchFactory(0, false)
			b = time.Since(t0).Seconds()
			t1 := time.Now()
			benchFactory(0, true)
			s = time.Since(t1).Seconds()
		} else {
			t1 := time.Now()
			benchFactory(0, true)
			s = time.Since(t1).Seconds()
			t0 := time.Now()
			benchFactory(0, false)
			b = time.Since(t0).Seconds()
		}
		base = append(base, b)
		withSampler = append(withSampler, s)
		ratios = append(ratios, 100*(s-b)/b)
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
		"scenario":            "fig8",
		"days":                days,
		"pairs":               pairs,
		"baseline_seconds":    mean(base),
		"sampled_seconds":     mean(withSampler),
		"overhead_pct":        overhead,
		"overhead_budget_pct": 5.0,
	}
	if overhead > 5 {
		t.Errorf("sampler overhead %.1f%% exceeds the 5%% budget", overhead)
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
