package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/ondemand"
	"repro/internal/plot"
)

// Extensions runs the experiments for the paper's named future work:
// database freshness (x1), partitioned product generation (x2),
// made-to-order products (x3), and the incremental-delivery lead metric
// (x4). These have no paper numbers to compare against — the Comparisons
// pit the alternatives against each other.
func Extensions() []Report {
	return []Report{
		DatabaseFreshness(),
		PartitionedProducts(),
		OnDemandPolicies(),
		IncrementalLead(),
	}
}

// extensionByID resolves extension experiment IDs.
func extensionByID(id string) (Report, bool) {
	switch id {
	case "x1":
		return DatabaseFreshness(), true
	case "x2":
		return PartitionedProducts(), true
	case "x3":
		return OnDemandPolicies(), true
	case "x4":
		return IncrementalLead(), true
	default:
		return Report{}, false
	}
}

// IncrementalLead quantifies the paper's newspaper analogy: partial
// forecasts are valuable because "the portion of the forecast completed
// by 7am might cover the time period up until noon". For each
// architecture it reports the worst-case lead (how far ahead of real time
// the day-1 salinity data at the server reaches, at its lowest point) and
// the lead at 7am.
func IncrementalLead() Report {
	r1 := dataflow.Run(dataflow.Architecture1, withTelemetry(dataflow.Params{}))
	r2 := dataflow.Run(dataflow.Architecture2, withTelemetry(dataflow.Params{}))
	const series = "1_salt.63"
	pick := func(r dataflow.Result) dataflow.Series {
		for _, s := range r.Series {
			if s.Name == series {
				return s
			}
		}
		panic("experiments: x4: series missing")
	}
	s1, s2 := pick(r1), pick(r2)
	// Two hours into the run the architectures differ most: Architecture 2
	// has already delivered all of day 1, Architecture 1 is still grinding.
	const earlyCheck = 2 * 3600.0
	leadAt := func(s dataflow.Series, t float64) float64 {
		lead := math.Inf(-1)
		for i := range s.Times {
			if s.Times[i] <= t {
				lead = s.Fraction[i]*dataflow.DefaultForecastHorizon - t
			}
		}
		return lead
	}
	curve1 := dataflow.LeadCurve(s1, dataflow.DefaultForecastHorizon)
	curve2 := dataflow.LeadCurve(s2, dataflow.DefaultForecastHorizon)
	return Report{
		ID:     "x4",
		Title:  "Incremental delivery: forecast lead over real time (1_salt.63)",
		XLabel: "time (s)",
		YLabel: "lead (s)",
		Series: []plot.Series{
			{Name: "Architecture 1", X: curve1.Times, Y: curve1.Fraction},
			{Name: "Architecture 2", X: curve2.Times, Y: curve2.Fraction},
		},
		Comparisons: []Comparison{
			{Metric: "Arch1 worst-case lead after first delivery",
				Paper:    dataflow.MinLead(s2, dataflow.DefaultForecastHorizon),
				Measured: dataflow.MinLead(s1, dataflow.DefaultForecastHorizon), Unit: "s",
				Note: "\"paper\" column holds Architecture 2's lead for comparison"},
			{Metric: "Arch1 lead two hours in", Paper: leadAt(s2, earlyCheck), Measured: leadAt(s1, earlyCheck), Unit: "s",
				Note: "as above: Arch2 vs Arch1 when the fishing-boat captain checks before dawn"},
		},
		Notes: []string{
			"the newspaper analogy: partial forecasts cover the near term, so users read them before the run completes",
		},
	}
}

// DatabaseFreshness compares §4.3.2's two database-maintenance options:
// periodic directory crawling (daily Perl scripts in the paper) versus
// update commands embedded in the run scripts. The metric is staleness:
// how long after a run completes does the database learn its walltime?
func DatabaseFreshness() Report {
	const days = 10

	mkConfig := func() factory.Config {
		till := forecast.Tillamook()
		columbia := forecast.NewSpec("forecast-columbia", "columbia", 5760, 28000, 8)
		columbia.StartOffset = 2 * 3600
		return factory.Config{
			Days: days,
			Forecasts: []factory.Assignment{
				{Spec: till, Node: "fnode01"},
				{Spec: columbia, Node: "fnode02"},
			},
		}
	}

	// Live updates: the run script writes the record the instant the run
	// completes — staleness zero by construction; measure it anyway.
	type seen struct {
		completed float64 // actual completion (campaign time)
		learned   float64 // when the database heard about it
	}
	var live []seen
	campLive, err := factory.New(telemetered(mkConfig()))
	if err != nil {
		panic(fmt.Sprintf("experiments: x1: %v", err))
	}
	campLive.AddRunLogHook(func(r *logs.RunRecord) {
		if r.Status == logs.StatusCompleted {
			live = append(live, seen{completed: r.End, learned: campLive.Engine().Now()})
		}
	})
	campLive.Run()

	// Periodic crawling at interval T: a run completing at t becomes
	// visible at the first crawl after t.
	crawlStaleness := func(interval float64) float64 {
		camp, err := factory.New(telemetered(mkConfig()))
		if err != nil {
			panic(fmt.Sprintf("experiments: x1: %v", err))
		}
		results := camp.Run()
		var total float64
		n := 0
		for _, r := range results {
			if !r.Finished {
				continue
			}
			firstCrawl := math.Ceil(r.End/interval) * interval
			total += firstCrawl - r.End
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return total / float64(n)
	}
	dailyCrawl := crawlStaleness(86400)
	hourlyCrawl := crawlStaleness(3600)

	var liveStaleness float64
	for _, s := range live {
		liveStaleness += s.learned - s.completed
	}
	if len(live) > 0 {
		liveStaleness /= float64(len(live))
	}

	return Report{
		ID:     "x1",
		Title:  "Statistics-database freshness: crawling vs run-script updates",
		XLabel: "strategy (1=daily crawl, 2=hourly crawl, 3=live)",
		YLabel: "mean staleness (s)",
		Series: []plot.Series{{
			Name: "staleness",
			X:    []float64{1, 2, 3},
			Y:    []float64{dailyCrawl, hourlyCrawl, liveStaleness},
		}},
		Comparisons: []Comparison{
			{Metric: "daily crawl mean staleness", Paper: 43200, Measured: dailyCrawl, Unit: "s",
				Note: "\"paper\" column: expected value of half the crawl interval"},
			{Metric: "hourly crawl mean staleness", Paper: 1800, Measured: hourlyCrawl, Unit: "s"},
			{Metric: "run-script updates mean staleness", Paper: 0, Measured: liveStaleness, Unit: "s"},
		},
		Notes: []string{
			"§4.3.2: 'periodically crawling directories does not provide the most up-to-date statistics for currently executing forecasts'",
		},
	}
}

// PartitionedProducts measures the §2.2 option of spreading one
// forecast's product generation over several nodes, in both regimes the
// paper discusses: today's load (little benefit, multiplied transfer
// cost) and a grown product load (clear win).
func PartitionedProducts() Report {
	a2 := dataflow.Run(dataflow.Architecture2, withTelemetry(dataflow.Params{}))
	a3 := dataflow.RunPartitioned(withTelemetry(dataflow.Params{}), 4)

	heavy := forecast.ReplicateProducts(forecast.DataflowForecast(), 4)
	heavyOne := dataflow.Run(dataflow.Architecture2, withTelemetry(dataflow.Params{Spec: heavy, Workers: 4}))
	heavyFour := dataflow.RunPartitioned(withTelemetry(dataflow.Params{Spec: heavy, Workers: 4}), 4)

	return Report{
		ID:     "x2",
		Title:  "Partitioned product generation (Architecture 3, k=4 workers)",
		XLabel: "configuration (1=Arch2, 2=Arch3; 3,4 = 4× load)",
		YLabel: "run walltime (s)",
		Series: []plot.Series{{
			Name: "run walltime",
			X:    []float64{1, 2, 3, 4},
			Y:    []float64{a2.RunWalltime, a3.RunWalltime, heavyOne.RunWalltime, heavyFour.RunWalltime},
		}},
		Comparisons: []Comparison{
			{Metric: "today's load: Arch3 vs Arch2 end-to-end", Paper: a2.EndToEnd, Measured: a3.EndToEnd, Unit: "s",
				Note: "\"paper\" column holds Arch2; §2.2 predicts little benefit today"},
			{Metric: "today's load: Arch3 bytes over LAN", Paper: a2.BytesOverLink, Measured: a3.BytesOverLink, Unit: "B",
				Note: "the transfer-overhead multiplication §2.2 warns about"},
			{Metric: "4× product load: partitioned vs single server", Paper: heavyOne.RunWalltime, Measured: heavyFour.RunWalltime, Unit: "s",
				Note: "the future regime where partitioning becomes attractive"},
		},
	}
}

// OnDemandPolicies measures the made-to-order extension (§5 future work):
// a greedy admission policy versus ForeMan-predictive admission control,
// under a request burst against a tightly loaded plant.
func OnDemandPolicies() Report {
	nodes := []core.NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1},
		{Name: "n2", CPUs: 2, Speed: 1},
	}
	stock := []core.Run{
		{Name: "s1", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s2", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s3", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s4", Work: 80000, Start: 3600, Deadline: 86400},
	}
	assign := map[string]string{"s1": "n1", "s2": "n1", "s3": "n2", "s4": "n2"}
	var requests []ondemand.Request
	for i := 0; i < 8; i++ {
		requests = append(requests, ondemand.Request{
			ID:      fmt.Sprintf("r%d", i),
			Arrival: 18000 + float64(i)*2400,
			Work:    15000,
		})
	}

	run := func(p ondemand.Policy) ondemand.Result {
		res, err := ondemand.Run(ondemand.Config{
			Nodes: nodes, Stock: stock, Assign: assign,
			Requests: requests, Policy: p,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: x3: %v", err))
		}
		return res
	}
	greedy := run(ondemand.GreedyPolicy{})
	aware := run(ondemand.DeadlineAwarePolicy{})

	return Report{
		ID:     "x3",
		Title:  "Made-to-order products: greedy vs predictive admission",
		XLabel: "policy (1=greedy, 2=deadline-aware)",
		YLabel: "count / seconds",
		Series: []plot.Series{
			{Name: "stock runs late", X: []float64{1, 2},
				Y: []float64{float64(len(greedy.StockLate)), float64(len(aware.StockLate))}},
			{Name: "mean request latency", X: []float64{1, 2},
				Y: []float64{greedy.MeanLatency(), aware.MeanLatency()}},
		},
		Comparisons: []Comparison{
			{Metric: "greedy: made-to-stock runs late", Paper: 0, Measured: float64(len(greedy.StockLate)),
				Note: "the failure mode admission control exists to prevent"},
			{Metric: "deadline-aware: made-to-stock runs late", Paper: 0, Measured: float64(len(aware.StockLate))},
			{Metric: "deadline-aware: requests deferred", Paper: 0, Measured: float64(aware.Count(ondemand.Deferred)),
				Note: "deferred work drains after the stock completes"},
			{Metric: "greedy mean request latency", Paper: 0, Measured: greedy.MeanLatency(), Unit: "s"},
			{Metric: "deadline-aware mean request latency", Paper: 0, Measured: aware.MeanLatency(), Unit: "s"},
		},
		Notes: []string{
			"§5: 'we are investigating how to incorporate made-to-order (on-demand) products into the system'",
		},
	}
}
