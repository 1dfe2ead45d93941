package serving

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func onePlot() []Product {
	return []Product{{Name: "x/plot", Forecast: "x", RenderWork: 100, Perish: 3600, Weight: 1}}
}

func testEdge(t *testing.T, products []Product, tweak func(*Config)) (*sim.Engine, *Edge) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng)
	srv := cl.AddNode("public-server", 2, 1)
	cfg := Config{Engine: eng, Server: srv, Products: products}
	if tweak != nil {
		tweak(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, e
}

func TestMissRendersThenHits(t *testing.T) {
	eng, e := testEdge(t, onePlot(), nil)
	eng.Scope("test").At(10, func() { e.Publish("x/plot", 0, 10) })
	eng.Scope("test").At(20, func() { e.ArriveN("x/plot", 1) })  // miss → render (done at 120)
	eng.Scope("test").At(500, func() { e.ArriveN("x/plot", 1) }) // fresh cache hit
	eng.Run()
	st := e.Stats()
	if st.Renders != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("renders/misses/hits = %d/%d/%d, want 1/1/1", st.Renders, st.Misses, st.Hits)
	}
	// The hit at t=500 served data published at t=10: staleness 490.
	if st.StalenessMax < 490 || st.StalenessMax > 500 {
		t.Fatalf("staleness max = %v, want ≈490", st.StalenessMax)
	}
	if st.MeanWait != 100 {
		t.Fatalf("mean render wait = %v, want 100", st.MeanWait)
	}
}

func TestTTLExpiryForcesRerender(t *testing.T) {
	prods := onePlot()
	prods[0].Perish = 300
	eng, e := testEdge(t, prods, nil)
	eng.Scope("test").At(10, func() { e.Publish("x/plot", 0, 10) })
	eng.Scope("test").At(20, func() { e.ArriveN("x/plot", 1) })  // render done 120, expires 420
	eng.Scope("test").At(500, func() { e.ArriveN("x/plot", 1) }) // expired → re-render same cycle
	eng.Run()
	st := e.Stats()
	if st.Renders != 2 || st.Hits != 0 {
		t.Fatalf("renders/hits = %d/%d, want 2/0", st.Renders, st.Hits)
	}
	if n := e.RenderCounts()["x/plot@0"]; n != 2 {
		t.Fatalf("renders for cycle 0 = %d, want 2", n)
	}
}

func TestCoalescingCollapsesConcurrentMisses(t *testing.T) {
	eng, e := testEdge(t, onePlot(), nil)
	eng.Scope("test").At(10, func() { e.Publish("x/plot", 0, 10) })
	eng.Scope("test").At(20, func() { e.ArriveN("x/plot", 1) })   // starts the render
	eng.Scope("test").At(50, func() { e.ArriveN("x/plot", 500) }) // coalesce
	eng.Scope("test").At(60, func() { e.ArriveN("x/plot", 1) })   // coalesce
	eng.Run()
	st := e.Stats()
	if st.Renders != 1 {
		t.Fatalf("renders = %d, want 1 (singleflight)", st.Renders)
	}
	if st.Coalesced != 501 {
		t.Fatalf("coalesced = %d, want 501", st.Coalesced)
	}
	if st.Shed != 0 || st.ServedStale != 0 {
		t.Fatalf("shed/stale = %d/%d, want 0/0", st.Shed, st.ServedStale)
	}
}

func TestNewCycleInvalidatesCache(t *testing.T) {
	prods := onePlot()
	prods[0].Perish = 7 * 86400 // TTL never expires within the test
	eng, e := testEdge(t, prods, nil)
	eng.Scope("test").At(10, func() { e.Publish("x/plot", 0, 10) })
	eng.Scope("test").At(20, func() { e.ArriveN("x/plot", 1) })
	eng.Scope("test").At(86400+100, func() { e.Publish("x/plot", 1, 86400+100) })
	eng.Scope("test").At(86400+200, func() { e.ArriveN("x/plot", 1) }) // cached cycle 0 is stale now
	eng.Run()
	st := e.Stats()
	if st.Renders != 2 {
		t.Fatalf("renders = %d, want 2 (new cycle re-renders)", st.Renders)
	}
	rc := e.RenderCounts()
	if rc["x/plot@0"] != 1 || rc["x/plot@1"] != 1 {
		t.Fatalf("render counts = %v, want one per cycle", rc)
	}
}

func TestShedWhenNothingPublished(t *testing.T) {
	eng, e := testEdge(t, onePlot(), nil)
	eng.Scope("test").At(20, func() { e.ArriveN("x/plot", 7) })
	eng.Run()
	st := e.Stats()
	if st.Shed != 7 || st.Renders != 0 {
		t.Fatalf("shed/renders = %d/%d, want 7/0", st.Shed, st.Renders)
	}
	if st.ShedByTier["stale+cold"] != 7 {
		t.Fatalf("shed by tier = %v, want 7 stale+cold", st.ShedByTier)
	}
}

// A hot fresh product displaces a cold one from a full render queue; the
// displaced waiters shed.
func TestQueueDisplacementPrefersHotTier(t *testing.T) {
	prods := []Product{
		{Name: "a/plot", Forecast: "a", RenderWork: 100, Perish: 3600, Weight: 1},
		{Name: "b/plot", Forecast: "b", RenderWork: 100, Perish: 3600, Weight: 1},
		{Name: "c/plot", Forecast: "c", RenderWork: 100, Perish: 3600, Weight: 1},
	}
	eng, e := testEdge(t, prods, func(c *Config) {
		c.MaxRenders = 1
		c.MaxQueue = 1
		c.HotRate = 50
	})
	// Build c's demand rate while nothing is published (those shed).
	eng.Scope("test").At(5, func() { e.ArriveN("c/plot", 1000) })
	eng.Scope("test").At(10, func() {
		e.Publish("a/plot", 0, 10)
		e.Publish("b/plot", 0, 10)
		e.Publish("c/plot", 0, 10)
	})
	eng.Scope("test").At(20, func() { e.ArriveN("a/plot", 1) }) // occupies the render slot
	eng.Scope("test").At(30, func() { e.ArriveN("b/plot", 1) }) // queued (cold)
	eng.Scope("test").At(40, func() { e.ArriveN("c/plot", 1) }) // hot: displaces b
	eng.Run()
	st := e.Stats()
	var a, b, c ProductStats
	for _, p := range st.Products {
		switch p.Product {
		case "a/plot":
			a = p
		case "b/plot":
			b = p
		case "c/plot":
			c = p
		}
	}
	if b.Shed != 1 {
		t.Fatalf("b shed = %d, want 1 (displaced from the queue)", b.Shed)
	}
	if a.Renders != 1 || c.Renders != 1 || b.Renders != 0 {
		t.Fatalf("renders a/b/c = %d/%d/%d, want 1/0/1", a.Renders, b.Renders, c.Renders)
	}
	if st.QueuedRenders != 0 || st.ActiveRenders != 0 {
		t.Fatalf("queue/active = %d/%d at end, want 0/0", st.QueuedRenders, st.ActiveRenders)
	}
}

func TestPublishOlderCycleIgnored(t *testing.T) {
	eng, e := testEdge(t, onePlot(), nil)
	eng.Scope("test").At(10, func() {
		e.Publish("x/plot", 1, 10)
		e.Publish("x/plot", 0, 10) // stale publish must not roll back
	})
	eng.Run()
	if got := e.Stats().Products[0].Cycle; got != 1 {
		t.Fatalf("cycle = %d, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng)
	srv := cl.AddNode("pub", 2, 1)
	cases := []Config{
		{Engine: eng, Server: srv},
		{Engine: eng, Server: srv, Products: []Product{{Name: "p", RenderWork: 0, Perish: 60}}},
		{Engine: eng, Server: srv, Products: []Product{
			{Name: "p", RenderWork: 1, Perish: 60},
			{Name: "p", RenderWork: 1, Perish: 60},
		}},
		{Server: srv, Products: onePlot()},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestUnknownProductCounted(t *testing.T) {
	eng, e := testEdge(t, onePlot(), nil)
	eng.Scope("test").At(20, func() { e.ArriveN("nope", 3) })
	eng.Run()
	if st := e.Stats(); st.Unknown != 3 || st.Requests != 0 {
		t.Fatalf("unknown/requests = %d/%d, want 3/0", st.Unknown, st.Requests)
	}
}

func TestDemandPriorities(t *testing.T) {
	base := map[string]int{"a": 5, "b": 3, "c": 1}
	demand := map[string]int64{"c": 100, "a": 10, "b": 1}
	got := DemandPriorities(base, demand)
	want := map[string]int{"c": 4, "a": 7, "b": 4}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("priorities = %v, want %v", got, want)
		}
	}
}

func TestDefaultProductsDeterministic(t *testing.T) {
	a := DefaultProducts(map[string]int{"x": 2, "y": 1})
	b := DefaultProducts(map[string]int{"y": 1, "x": 2})
	if len(a) != 4 || len(a) != len(b) {
		t.Fatalf("catalog sizes = %d/%d, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog order not deterministic: %v vs %v", a[i], b[i])
		}
	}
}

func TestForecastDemandAggregatesProducts(t *testing.T) {
	prods := DefaultProducts(map[string]int{"x": 2})
	eng, e := testEdge(t, prods, nil)
	eng.Scope("test").At(10, func() {
		e.ArriveN("x/plot", 5)
		e.ArriveN("x/anim", 3)
	})
	eng.Run()
	if d := e.ForecastDemand(); d["x"] != 8 {
		t.Fatalf("forecast demand = %v, want x:8", d)
	}
}
