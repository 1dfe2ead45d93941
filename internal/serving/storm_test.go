package serving

import (
	"testing"
)

// stormProducts uses a cycle-long TTL so the coalescing assertion is
// exact: within one forecast cycle each product renders at most once.
func stormProducts() []Product {
	weights := map[string]float64{"columbia": 10, "willapa": 6, "grays": 4, "fraser": 3, "yaquina": 2}
	var out []Product
	for _, f := range []string{"columbia", "fraser", "grays", "willapa", "yaquina"} {
		out = append(out, Product{Name: f + "/plot", Forecast: f, RenderWork: 300,
			Perish: 86400, Weight: weights[f]})
	}
	return out
}

// The headline acceptance scenario: a flash crowd hits while the
// forecast is deliberately late. Coalescing collapses the miss storm to
// one render per product, shedding keeps every made-to-stock deadline,
// and ≥1M simulated user requests flow through the edge.
func TestStormScenarioWithLateForecast(t *testing.T) {
	storm := ScenarioConfig{
		Days:     2,
		Users:    600000,
		Products: stormProducts(),
		LateDay:  1,
		LateBy:   3 * 3600, // day 1 data lands ~09:00 instead of 06:00
		Load: LoadConfig{
			Storms: []Storm{{
				Start: 86400 + 7*3600, Duration: 5 * 3600, Multiplier: 6,
				Forecast: "columbia", // the storm region's flash crowd
			}},
		},
	}
	res, err := RunScenario(storm)
	if err != nil {
		t.Fatal(err)
	}

	if res.TotalRequests < 1_000_000 {
		t.Fatalf("total requests = %d, want ≥ 1M", res.TotalRequests)
	}
	if res.TotalRequests != res.Stats.Requests {
		t.Fatalf("generator sent %d, edge saw %d", res.TotalRequests, res.Stats.Requests)
	}

	// Shedding + the admission oracle kept every made-to-stock deadline.
	if len(res.StockLate) != 0 {
		t.Fatalf("made-to-stock runs went late: %v (completions %v, deadlines %v)",
			res.StockLate, res.StockCompletion, res.StockDeadlines)
	}
	if len(res.StockCompletion) != storm.Days {
		t.Fatalf("stock completions = %d, want %d", len(res.StockCompletion), storm.Days)
	}

	// Coalescing: the flash-crowd cycle triggered exactly one render per
	// product despite tens of thousands of concurrent misses.
	for _, p := range storm.Products {
		if n := res.Renders[p.Name+"@1"]; n > 1 {
			t.Fatalf("product %s rendered %d times in the storm cycle, want ≤ 1 (all: %v)",
				p.Name, n, res.Renders)
		}
	}
	if n := res.Renders["columbia/plot@1"]; n != 1 {
		t.Fatalf("columbia/plot renders in storm cycle = %d, want exactly 1 (%v)", n, res.Renders)
	}
	if res.Stats.Coalesced < 1000 {
		t.Fatalf("coalesced = %d, want a miss storm (≥1000) collapsed onto in-flight renders",
			res.Stats.Coalesced)
	}

	// Load was genuinely shed (pre-publish day 0 has nothing to serve)
	// and the cache carried the bulk of the traffic.
	if res.Stats.Shed == 0 {
		t.Fatal("no requests shed — the scenario never stressed admission")
	}
	if res.Stats.HitRate < 0.5 {
		t.Fatalf("hit rate = %.3f, want the cache to absorb most traffic", res.Stats.HitRate)
	}

	// The late forecast shows up as staleness-at-delivery: p99 must be
	// materially worse than an on-time control run.
	control := storm
	control.LateDay = -1
	control.LateBy = 0
	control.Load.Storms = nil
	ctl, err := RunScenario(control)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctl.StockLate) != 0 {
		t.Fatalf("control stock late: %v", ctl.StockLate)
	}
	if res.Stats.StalenessP99 <= ctl.Stats.StalenessP99 {
		t.Fatalf("late-day p99 staleness %v not worse than on-time control %v",
			res.Stats.StalenessP99, ctl.Stats.StalenessP99)
	}
}

// The stock guard keeps deadlines under a render-heavy load: renders
// that would make a made-to-stock run late wait instead.
func TestStockGuardKeepsStockDeadlines(t *testing.T) {
	churn := func() []Product {
		var out []Product
		for _, f := range []string{"a", "b", "c", "d", "e", "f"} {
			out = append(out, Product{Name: f + "/plot", Forecast: f,
				RenderWork: 1800, Perish: 600, Weight: 1})
		}
		return out
	}
	grd, err := RunScenario(ScenarioConfig{Days: 1, Users: 200000, Products: churn()})
	if err != nil {
		t.Fatal(err)
	}
	if len(grd.StockLate) != 0 {
		t.Fatalf("guarded run made stock late: %v (completions %v, deadlines %v)",
			grd.StockLate, grd.StockCompletion, grd.StockDeadlines)
	}
	// The guard defers renders rather than refusing service outright:
	// renders still happen, just never at the stock's expense.
	if grd.Stats.Renders == 0 {
		t.Fatal("guarded edge rendered nothing")
	}
}

// The demand feedback signal reflects the flash crowd: the storm-hit
// forecast dominates ForecastDemand and earns the top boosted priority.
func TestDemandFeedbackFollowsStorm(t *testing.T) {
	cfg := ScenarioConfig{
		Days:     1,
		Users:    100000,
		Products: stormProducts(),
		Load: LoadConfig{
			Storms: []Storm{{Start: 8 * 3600, Duration: 6 * 3600, Multiplier: 20,
				Forecast: "yaquina"}},
		},
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// yaquina has the smallest weight (2/25) but the 20× storm makes it
	// the busiest forecast of the day.
	for f, d := range res.Demand {
		if f != "yaquina" && d >= res.Demand["yaquina"] {
			t.Fatalf("demand %v: storm-hit yaquina should dominate", res.Demand)
		}
	}
	base := map[string]int{"columbia": 10, "willapa": 6, "grays": 4, "fraser": 3, "yaquina": 2}
	boosted := DemandPriorities(base, res.Demand)
	if boosted["yaquina"] != 2+len(base) {
		t.Fatalf("boosted priorities %v: yaquina should take the top boost", boosted)
	}
}
