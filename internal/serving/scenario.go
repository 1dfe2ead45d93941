// End-to-end serving scenario: product files are published on the
// factory side, rsync'd over a netsim link to the public server, and
// served to a synthetic population through the edge — while the public
// server also carries made-to-stock product generation with hard
// deadlines. This is the harness behind the storm tests, `foreman
// -serving`, and BENCH_serving.json.
package serving

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/ondemand"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ScenarioConfig sizes a self-contained serving scenario.
type ScenarioConfig struct {
	Days     int
	Users    int
	Products []Product // default: DefaultProducts over five CORIE-style forecasts
	Load     LoadConfig

	// LateDay (0-based; -1 = none; zero value means day 0 is never late
	// — use ≥1) publishes LateBy seconds late: the headline
	// cache-miss-storm failure mode.
	LateDay int
	LateBy  float64
}

// The scenario's fixed plant.
const (
	// publishOffset is when each day's product files appear on the
	// factory side: 6h after midnight.
	publishOffset = 6 * 3600
	// productBytes per product file (8 MB) over a bandwidth bytes/s link
	// (12.5e6 ≈ 100 Mb/s), scanned every rsyncInterval seconds.
	productBytes  = 8 << 20
	bandwidth     = 12.5e6
	rsyncInterval = 300
	// stockWork is the made-to-stock product generation the public server
	// runs each day (3h of CPU), due stockDeadline seconds after the day's
	// data actually arrives (4h).
	stockWork     = 3 * 3600
	stockDeadline = 4 * 3600
)

// ScenarioResult is one scenario's outcome.
type ScenarioResult struct {
	Stats           Stats
	TotalRequests   int64
	StockLate       []string
	StockCompletion map[string]float64
	StockDeadlines  map[string]float64
	Renders         map[string]int64 // product@cycle → render count
	Demand          map[string]int64 // per-forecast request totals
	Edge            *Edge
}

func (c *ScenarioConfig) defaults() {
	if c.Days <= 0 {
		c.Days = 2
	}
	if c.Users <= 0 {
		c.Users = 100000
	}
	if len(c.Products) == 0 {
		c.Products = DefaultProducts(map[string]int{
			"columbia": 10, "willapa": 6, "grays": 4, "fraser": 3, "yaquina": 2,
		})
	}
}

// RunScenario simulates the configured days and returns the edge's
// statistics plus the made-to-stock verdict.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	cfg.defaults()
	eng := sim.NewEngine()
	cl := cluster.New(eng)
	server := cl.AddNode("public-server", 2, 1.0)
	sched := eng.Scope("scenario")

	srcFS := vfs.New(eng.Now)
	dstFS := vfs.New(eng.Now)
	link := netsim.NewLink(eng, "wan", bandwidth)

	// Made-to-stock product generation on the public server, due a fixed
	// window after each day's data arrives.
	stockJobs := make(map[string]*cluster.Job)
	completions := make(map[string]float64)
	deadlines := make(map[string]float64)
	serverInfo := []core.NodeInfo{{Name: server.Name(), CPUs: server.CPUs(), Speed: server.Speed()}}

	var edge *Edge

	// expected maps a delivered path to its product and cycle; Publish
	// fires when the destination copy is complete.
	type target struct {
		product string
		cycle   int
	}
	expected := make(map[string]target, cfg.Days*len(cfg.Products))
	observer := func(t float64, path string, destSize int64) {
		if destSize >= productBytes {
			if tg, ok := expected[path]; ok {
				edge.Publish(tg.product, tg.cycle, t)
				delete(expected, path)
			}
		}
	}
	rsync := netsim.NewRsync(eng, srcFS, dstFS, link, rsyncInterval, []string{"/products"}, observer)

	for d := 0; d < cfg.Days; d++ {
		d := d
		pub := float64(d)*86400 + publishOffset
		if d == cfg.LateDay && cfg.LateBy > 0 {
			pub += cfg.LateBy
		}
		for _, p := range cfg.Products {
			path := fmt.Sprintf("/products/%s/day%d", p.Name, d)
			expected[path] = target{product: p.Name, cycle: d}
			sched.At(pub, func() {
				if err := srcFS.Append(path, productBytes); err != nil {
					panic(err)
				}
			})
		}
		name := fmt.Sprintf("stock-d%d", d)
		sched.At(pub, func() {
			deadlines[name] = eng.Now() + stockDeadline
			stockJobs[name] = server.Submit("stock:"+name, stockWork, func() {
				completions[name] = eng.Now()
				delete(stockJobs, name)
			})
		})
	}

	stockState := func(now float64) *ondemand.State {
		plan := &core.Plan{Nodes: serverInfo, Assign: map[string]string{}}
		for name, job := range stockJobs {
			plan.Runs = append(plan.Runs, core.Run{
				Name: name, Work: job.Remaining(), Start: now, Deadline: deadlines[name],
			})
			plan.Assign[name] = server.Name()
		}
		return &ondemand.State{
			Now:    now,
			Nodes:  serverInfo,
			Stock:  plan,
			Active: map[string]int{server.Name(): server.Active()},
		}
	}

	var err error
	edge, err = New(Config{
		Engine:   eng,
		Server:   server,
		Products: cfg.Products,
		Stock:    stockState,
	})
	if err != nil {
		return nil, err
	}

	load := cfg.Load
	load.Users = cfg.Users
	gen, err := NewGenerator(edge, load)
	if err != nil {
		return nil, err
	}
	horizon := float64(cfg.Days) * 86400
	gen.Start(horizon)
	rsync.Start()
	eng.RunUntil(horizon)
	rsync.Stop()

	res := &ScenarioResult{
		Stats:           edge.Stats(),
		TotalRequests:   gen.Total(),
		StockCompletion: completions,
		StockDeadlines:  deadlines,
		Renders:         edge.RenderCounts(),
		Demand:          edge.ForecastDemand(),
		Edge:            edge,
	}
	// Stock verdict: missed deadline, or never completed by the horizon.
	for name, dl := range deadlines {
		c, done := completions[name]
		if !done || c > dl {
			res.StockLate = append(res.StockLate, name)
		}
	}
	// Stock submitted but never even started (publish past horizon) is
	// not judged — the scenario horizon ends at the last simulated day.
	sort.Strings(res.StockLate)
	return res, nil
}
