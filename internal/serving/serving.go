// Package serving is the public product edge of the forecast factory —
// the piece of Architecture 2 the public actually touches. Product files
// land on the public server via the netsim rsync path; this package
// models the HTTP tier in front of them: a TTL cache keyed by product and
// forecast cycle, request coalescing so a cache-miss storm after a late
// forecast triggers one render per product instead of thousands, and
// admission control with priority-tiered load shedding that consults the
// on-demand what-if oracle so render work provably never displaces a
// made-to-stock deadline. Request counts feed back into product priority
// — the closed demand loop the paper's §4.2 public server lacks.
package serving

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ondemand"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Product is one public-facing product derived from a forecast's outputs
// (a plot, an animation, a transect).
type Product struct {
	Name     string
	Forecast string
	// RenderWork is the CPU-seconds to render the product from the
	// forecast's data files on the public server.
	RenderWork float64
	// Perish is the cache TTL in seconds: how long a rendered copy stays
	// servable within one forecast cycle (the paper's perishability).
	Perish float64
	// Weight scales this product's share of synthetic public demand.
	Weight float64
}

// Staleness histogram: 60-second buckets spanning 48 hours plus one
// overflow bucket. Quantiles over millions of deliveries cost a fixed
// 2881 ints.
const (
	stalenessBucket  = 60.0
	stalenessBuckets = 48*60 + 1
)

// Config describes the edge.
type Config struct {
	Engine *sim.Engine
	// Server is the public server node renders execute on.
	Server *cluster.Node
	// Products is the public catalog.
	Products []Product
	// MaxRenders bounds concurrent renders (default: server CPUs).
	MaxRenders int
	// MaxQueue bounds the render queue; beyond it requests degrade to
	// stale copies or are shed (default 32).
	MaxQueue int
	// HotRate is the decayed requests-per-hour rate above which a product
	// counts as popular (default 600).
	HotRate float64
	// Stock, when set, returns the current made-to-stock state for the
	// admission oracle. A render is admitted only if DeadlineAwarePolicy
	// says every stock deadline still holds with the render's work (and
	// all in-flight renders) added to the server.
	Stock func(now float64) *ondemand.State
	// Telemetry optionally counts requests by outcome.
	Telemetry *telemetry.Registry
}

// Priority tiers for queueing and shedding: fresh beats stale, popular
// beats cold. Stale-cold work is shed first; fresh-hot renders are never
// displaced by lower tiers.
const (
	tierFreshHot = iota
	tierFreshCold
	tierStaleHot
	tierStaleCold
	tierCount
)

func tierName(t int) string {
	switch t {
	case tierFreshHot:
		return "fresh+hot"
	case tierFreshCold:
		return "fresh+cold"
	case tierStaleHot:
		return "stale+hot"
	case tierStaleCold:
		return "stale+cold"
	default:
		return fmt.Sprintf("tier%d", t)
	}
}

// entry is one cached render.
type entry struct {
	cycle      int
	dataT      float64 // data time of the rendered cycle
	renderedAt float64
	expires    float64
}

// waitBatch groups coalesced requests that arrived together.
type waitBatch struct {
	n  int64
	at float64
}

// renderJob is one render, queued or running, with its coalesced waiters.
type renderJob struct {
	ps      *productState
	cycle   int
	dataT   float64
	tier    int
	running bool
	job     *cluster.Job
	batches []waitBatch
}

func (r *renderJob) waiting() int64 {
	var n int64
	for _, b := range r.batches {
		n += b.n
	}
	return n
}

type productState struct {
	p       Product
	cycle   int // latest published cycle (-1 = nothing published yet)
	dataT   float64
	cached  *entry
	render  *renderJob // in-flight or queued render for this product
	rate    float64    // exponentially decayed requests/hour
	rateAt  float64
	demand  int64 // cumulative requests (the planner feedback signal)
	req     int64
	hits    int64
	misses  int64
	shed    int64
	stale   int64
	renders int64
	// rendersByCycle proves coalescing: renders per forecast cycle.
	rendersByCycle map[int]int64
}

// Edge is the public product-serving tier.
type Edge struct {
	mu    sync.Mutex
	cfg   Config
	sched sim.Scope

	products map[string]*productState
	order    []string // catalog order for deterministic iteration

	queue  []*renderJob
	active int
	// activeJobs feeds in-flight render remainders into the admission
	// oracle so the stock guarantee holds with renders already running.
	activeJobs map[string]*cluster.Job
	retry      sim.Timer

	requests, hits, misses, coalesced, shed, servedStale, unknown, renders int64
	shedByTier                                                             [tierCount]int64
	staleHist                                                              [stalenessBuckets]int64
	staleSum, staleMax                                                     float64
	delivered                                                              int64
	waitSum                                                                float64
	waited                                                                 int64

	mReq *telemetry.Counter
	mOut map[string]*telemetry.Counter
}

// New builds an edge over the public server.
func New(cfg Config) (*Edge, error) {
	if cfg.Engine == nil || cfg.Server == nil {
		return nil, fmt.Errorf("serving: engine and server are required")
	}
	if len(cfg.Products) == 0 {
		return nil, fmt.Errorf("serving: empty product catalog")
	}
	if cfg.MaxRenders <= 0 {
		cfg.MaxRenders = cfg.Server.CPUs()
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 32
	}
	if cfg.HotRate <= 0 {
		cfg.HotRate = 600
	}
	e := &Edge{
		cfg:        cfg,
		sched:      cfg.Engine.Scope("serving"),
		products:   make(map[string]*productState, len(cfg.Products)),
		activeJobs: make(map[string]*cluster.Job),
	}
	for _, p := range cfg.Products {
		if p.RenderWork <= 0 || p.Perish <= 0 {
			return nil, fmt.Errorf("serving: product %q needs positive RenderWork and Perish", p.Name)
		}
		if _, dup := e.products[p.Name]; dup {
			return nil, fmt.Errorf("serving: duplicate product %q", p.Name)
		}
		e.products[p.Name] = &productState{p: p, cycle: -1, rendersByCycle: make(map[int]int64)}
		e.order = append(e.order, p.Name)
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.Describe("serving_requests_total", "public product requests by outcome")
		e.mOut = make(map[string]*telemetry.Counter)
		for _, o := range []string{"hit", "coalesced", "render", "stale", "shed"} {
			e.mOut[o] = reg.Counter("serving_requests_total", telemetry.Labels{"outcome": o})
		}
	}
	return e, nil
}

func (e *Edge) count(outcome string, n int64) {
	if e.mOut != nil {
		e.mOut[outcome].Add(float64(n))
	}
}

// Publish records that a new forecast cycle's data for the product is on
// the public server (rsync delivered it, or the campaign's run-log hook
// fired). dataT is the delivery time; staleness-at-delivery is measured
// against it.
func (e *Edge) Publish(product string, cycle int, dataT float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.products[product]
	if !ok || cycle < ps.cycle {
		return
	}
	ps.cycle = cycle
	ps.dataT = dataT
}

// PublishForecast publishes every product derived from the forecast.
func (e *Edge) PublishForecast(forecast string, cycle int, dataT float64) {
	e.mu.Lock()
	names := make([]string, 0, 2)
	for _, name := range e.order {
		if e.products[name].p.Forecast == forecast {
			names = append(names, name)
		}
	}
	e.mu.Unlock()
	for _, n := range names {
		e.Publish(n, cycle, dataT)
	}
}

// ArriveN serves n simultaneous requests for the product — the batched
// form the synthetic load generator uses so millions of simulated users
// cost thousands of events, not millions.
func (e *Edge) ArriveN(product string, n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Engine.Now()
	ps, ok := e.products[product]
	if !ok {
		e.unknown += n
		return
	}
	e.requests += n
	ps.req += n
	ps.demand += n
	e.noteDemand(ps, now, n)

	// Fresh cache hit: latest published cycle, not past its TTL.
	if c := ps.cached; c != nil && c.cycle == ps.cycle && now < c.expires {
		e.hits += n
		ps.hits += n
		e.observeDelivery(now, c.dataT, 0, n)
		e.count("hit", n)
		return
	}

	e.misses += n
	ps.misses += n

	if ps.cycle < 0 {
		// Nothing published yet: serve a stale copy if one exists, else shed.
		e.degrade(ps, now, n)
		return
	}

	// Coalesce onto the in-flight (or queued) render for this product.
	if r := ps.render; r != nil {
		r.batches = append(r.batches, waitBatch{n: n, at: now})
		e.coalesced += n
		e.count("coalesced", n)
		return
	}

	job := &renderJob{ps: ps, cycle: ps.cycle, dataT: ps.dataT,
		tier: e.tier(ps, now), batches: []waitBatch{{n: n, at: now}}}
	if e.active < e.cfg.MaxRenders && e.admit(now, ps.p.RenderWork) {
		e.startRender(job, now)
		return
	}
	e.enqueue(job, now)
}

// cycleLength is the forecast cycle in seconds: the daily forecast. A
// cached entry from an older cycle is stale.
const cycleLength = 86400.0

// tier classifies the product right now: fresh (a render would serve the
// current cycle) beats stale, hot (decayed demand above HotRate) beats cold.
func (e *Edge) tier(ps *productState, now float64) int {
	fresh := ps.cycle >= 0 && ps.cycle == int(now/cycleLength)
	hot := e.decayedRate(ps, now) >= e.cfg.HotRate
	switch {
	case fresh && hot:
		return tierFreshHot
	case fresh:
		return tierFreshCold
	case hot:
		return tierStaleHot
	default:
		return tierStaleCold
	}
}

// demandTau is the demand decay time constant in seconds.
const demandTau = 3600.0

func (e *Edge) noteDemand(ps *productState, now float64, n int64) {
	ps.rate = e.decayedRate(ps, now) + float64(n)*3600/demandTau
	ps.rateAt = now
}

func (e *Edge) decayedRate(ps *productState, now float64) float64 {
	if now <= ps.rateAt {
		return ps.rate
	}
	return ps.rate * math.Exp(-(now-ps.rateAt)/demandTau)
}

// admit asks the on-demand what-if oracle whether the server can absorb
// `work` more CPU-seconds without slipping a made-to-stock deadline. All
// in-flight renders' remaining work rides along in the trial plan so the
// guarantee is sound with renders already running.
func (e *Edge) admit(now, work float64) bool {
	if e.cfg.Stock == nil {
		return true
	}
	st := e.cfg.Stock(now)
	if st == nil || st.Stock == nil {
		return true
	}
	server := e.cfg.Server.Name()
	for label, job := range e.activeJobs {
		if job.Finished() {
			continue
		}
		name := "render:" + label
		st.Stock.Runs = append(st.Stock.Runs, core.Run{Name: name, Work: job.Remaining(), Start: now})
		st.Stock.Assign[name] = server
	}
	_, outcome := ondemand.DeadlineAwarePolicy{}.Decide(
		ondemand.Request{ID: "edge-render", Work: work}, st)
	return outcome == ondemand.Admitted
}

func (e *Edge) startRender(r *renderJob, now float64) {
	ps := r.ps
	// Render the latest published cycle, not the one current when the job
	// was queued — a queued render that waited past a publish serves the
	// newer data.
	if ps.cycle > r.cycle {
		r.cycle, r.dataT = ps.cycle, ps.dataT
	}
	r.running = true
	ps.render = r
	e.active++
	e.renders++
	ps.renders++
	ps.rendersByCycle[r.cycle]++
	e.count("render", 1)
	label := fmt.Sprintf("%s@%d", ps.p.Name, r.cycle)
	job := e.cfg.Server.Submit("render:"+label, ps.p.RenderWork, func() {
		e.finishRender(r, label)
	})
	r.job = job
	e.activeJobs[label] = job
}

func (e *Edge) finishRender(r *renderJob, label string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Engine.Now()
	delete(e.activeJobs, label)
	e.active--
	ps := r.ps
	ps.cached = &entry{cycle: r.cycle, dataT: r.dataT, renderedAt: now,
		expires: now + ps.p.Perish}
	if ps.render == r {
		ps.render = nil
	}
	for _, b := range r.batches {
		e.observeDelivery(now, r.dataT, now-b.at, b.n)
	}
	e.drainQueue(now)
}

func (e *Edge) enqueue(r *renderJob, now float64) {
	if len(e.queue) >= e.cfg.MaxQueue {
		// Full queue: a better tier displaces the worst queued render,
		// whose waiters degrade; otherwise the newcomer degrades.
		worst := -1
		for i, q := range e.queue {
			if worst < 0 || q.tier > e.queue[worst].tier {
				worst = i
			}
		}
		if worst >= 0 && e.queue[worst].tier > r.tier {
			evicted := e.queue[worst]
			e.queue[worst] = r
			r.ps.render = r
			evicted.ps.render = nil
			e.degradeBatches(evicted, now)
			return
		}
		e.degradeBatches(r, now)
		return
	}
	r.ps.render = r
	e.queue = append(e.queue, r)
	e.armRetry()
}

// drainQueue starts queued renders in tier order while slots and the
// stock oracle allow.
func (e *Edge) drainQueue(now float64) {
	sort.SliceStable(e.queue, func(i, j int) bool {
		if e.queue[i].tier != e.queue[j].tier {
			return e.queue[i].tier < e.queue[j].tier
		}
		return e.queue[i].waiting() > e.queue[j].waiting()
	})
	for len(e.queue) > 0 && e.active < e.cfg.MaxRenders {
		r := e.queue[0]
		if !e.admit(now, r.ps.p.RenderWork) {
			break
		}
		e.queue = e.queue[1:]
		e.startRender(r, now)
	}
	if len(e.queue) > 0 {
		e.armRetry()
	}
}

// retryInterval is how often, in seconds, queued renders re-poll the
// admission oracle.
const retryInterval = 60.0

func (e *Edge) armRetry() {
	if e.retry.Active() {
		return
	}
	e.retry = e.sched.After(retryInterval, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.drainQueue(e.cfg.Engine.Now())
	})
}

// degrade serves a stale cached copy when one exists, else sheds.
func (e *Edge) degrade(ps *productState, now float64, n int64) {
	if c := ps.cached; c != nil {
		e.servedStale += n
		ps.stale += n
		e.observeDelivery(now, c.dataT, 0, n)
		e.count("stale", n)
		return
	}
	e.shed += n
	ps.shed += n
	e.shedByTier[e.tier(ps, now)] += n
	e.count("shed", n)
}

func (e *Edge) degradeBatches(r *renderJob, now float64) {
	for _, b := range r.batches {
		e.degrade(r.ps, now, b.n)
	}
}

func (e *Edge) observeDelivery(now, dataT, wait float64, n int64) {
	staleness := now - dataT
	if staleness < 0 {
		staleness = 0
	}
	b := int(staleness / stalenessBucket)
	if b >= stalenessBuckets {
		b = stalenessBuckets - 1
	}
	e.staleHist[b] += n
	e.staleSum += staleness * float64(n)
	if staleness > e.staleMax {
		e.staleMax = staleness
	}
	e.delivered += n
	if wait > 0 {
		e.waitSum += wait * float64(n)
		e.waited += n
	}
}

func (e *Edge) quantile(q float64) float64 {
	if e.delivered == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(e.delivered)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range e.staleHist {
		cum += c
		if cum >= target {
			return float64(i+1) * stalenessBucket
		}
	}
	return e.staleMax
}

// ForecastDemand sums cumulative request counts per forecast — the
// demand signal fed back into planner and on-demand priorities.
func (e *Edge) ForecastDemand() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := make(map[string]int64)
	for _, name := range e.order {
		ps := e.products[name]
		d[ps.p.Forecast] += ps.demand
	}
	return d
}

// DemandPriorities closes the loop: forecasts ranked by observed demand
// get priority boosts on top of their configured base priority, busiest
// first — popular products get built first the next cycle.
func DemandPriorities(base map[string]int, demand map[string]int64) map[string]int {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if demand[names[i]] != demand[names[j]] {
			return demand[names[i]] > demand[names[j]]
		}
		return names[i] < names[j]
	})
	out := make(map[string]int, len(base))
	for rank, name := range names {
		out[name] = base[name] + (len(names) - rank)
	}
	return out
}

// ProductStats is one product's counters in a Stats snapshot.
type ProductStats struct {
	Product     string  `json:"product"`
	Forecast    string  `json:"forecast"`
	Requests    int64   `json:"requests"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Renders     int64   `json:"renders"`
	Shed        int64   `json:"shed"`
	ServedStale int64   `json:"served_stale"`
	DemandRate  float64 `json:"demand_rate"` // decayed requests/hour
	Cycle       int     `json:"cycle"`
	Hot         bool    `json:"hot"`
}

// Stats is a consistent snapshot of the edge.
type Stats struct {
	Now           float64          `json:"now"`
	Requests      int64            `json:"requests"`
	Hits          int64            `json:"hits"`
	Misses        int64            `json:"misses"`
	Coalesced     int64            `json:"coalesced"`
	Renders       int64            `json:"renders"`
	Shed          int64            `json:"shed"`
	ServedStale   int64            `json:"served_stale"`
	Unknown       int64            `json:"unknown"`
	HitRate       float64          `json:"hit_rate"`
	ShedFraction  float64          `json:"shed_fraction"`
	StalenessP50  float64          `json:"staleness_p50_seconds"`
	StalenessP99  float64          `json:"staleness_p99_seconds"`
	StalenessMax  float64          `json:"staleness_max_seconds"`
	MeanStaleness float64          `json:"staleness_mean_seconds"`
	MeanWait      float64          `json:"mean_wait_seconds"`
	ActiveRenders int              `json:"active_renders"`
	QueuedRenders int              `json:"queued_renders"`
	ShedByTier    map[string]int64 `json:"shed_by_tier,omitempty"`
	Products      []ProductStats   `json:"products"`
}

// Stats snapshots the edge. Safe to call from the monitor's HTTP
// goroutine while the simulation runs.
func (e *Edge) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Engine.Now()
	st := Stats{
		Now: now, Requests: e.requests, Hits: e.hits, Misses: e.misses,
		Coalesced: e.coalesced, Renders: e.renders, Shed: e.shed,
		ServedStale: e.servedStale, Unknown: e.unknown,
		StalenessP50: e.quantile(0.50), StalenessP99: e.quantile(0.99),
		StalenessMax:  e.staleMax,
		ActiveRenders: e.active, QueuedRenders: len(e.queue),
	}
	if e.requests > 0 {
		st.HitRate = float64(e.hits) / float64(e.requests)
		st.ShedFraction = float64(e.shed) / float64(e.requests)
	}
	if e.delivered > 0 {
		st.MeanStaleness = e.staleSum / float64(e.delivered)
	}
	if e.waited > 0 {
		st.MeanWait = e.waitSum / float64(e.waited)
	}
	st.ShedByTier = make(map[string]int64)
	for t, n := range e.shedByTier {
		if n > 0 {
			st.ShedByTier[tierName(t)] = n
		}
	}
	for _, name := range e.order {
		ps := e.products[name]
		st.Products = append(st.Products, ProductStats{
			Product: ps.p.Name, Forecast: ps.p.Forecast,
			Requests: ps.req, Hits: ps.hits, Misses: ps.misses,
			Renders: ps.renders, Shed: ps.shed, ServedStale: ps.stale,
			DemandRate: e.decayedRate(ps, now), Cycle: ps.cycle,
			Hot: e.decayedRate(ps, now) >= e.cfg.HotRate,
		})
	}
	return st
}

// RenderCounts returns renders per product and cycle, keyed
// "product@cycle" — the coalescing proof: a miss storm on one product in
// one cycle must show exactly one render.
func (e *Edge) RenderCounts() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64)
	for _, name := range e.order {
		for cycle, n := range e.products[name].rendersByCycle {
			out[fmt.Sprintf("%s@%d", name, cycle)] = n
		}
	}
	return out
}

// DefaultProducts derives the public catalog from a forecast roster: each
// forecast publishes a quick-look plot (short TTL, demand scales with
// priority) and an animation (longer render, longer TTL).
func DefaultProducts(priorities map[string]int) []Product {
	names := make([]string, 0, len(priorities))
	for n := range priorities {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Product
	for _, n := range names {
		w := float64(priorities[n])
		if w < 1 {
			w = 1
		}
		out = append(out,
			Product{Name: n + "/plot", Forecast: n, RenderWork: 300, Perish: 2 * 3600, Weight: w},
			Product{Name: n + "/anim", Forecast: n, RenderWork: 900, Perish: 6 * 3600, Weight: w / 2},
		)
	}
	return out
}
