// Synthetic public demand: a diurnal base curve plus storm-event flash
// crowds. CORIE is coastal forecasting — the public hammers the site
// exactly when a storm makes the runs slowest, so the generator lets a
// flash crowd focus on one forecast's products.
package serving

import (
	"fmt"
	"math"
	"math/rand"
)

// Storm is a flash crowd: demand multiplies by Multiplier between Start
// and Start+Duration. When Forecast is set the surge hits only that
// forecast's products (everyone wants the storm region's plots).
type Storm struct {
	Start      float64
	Duration   float64
	Multiplier float64
	Forecast   string
}

// LoadConfig describes the synthetic user population.
type LoadConfig struct {
	// Users is the simulated population size.
	Users  int
	Storms []Storm
	// Seed makes the jittered per-product split deterministic (default 1).
	Seed int64
}

// Generator drives synthetic demand into an edge.
type Generator struct {
	edge  *Edge
	cfg   LoadConfig
	rng   *rand.Rand
	total int64
	// weights are cached per product, in catalog order.
	names   []string
	weights []float64
	byFcst  map[string][]int // product indices per forecast
	wsum    float64
}

// NewGenerator builds a generator over the edge's catalog.
func NewGenerator(e *Edge, cfg LoadConfig) (*Generator, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("serving: load needs Users > 0")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Generator{edge: e, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		byFcst: make(map[string][]int)}
	for i, name := range e.order {
		p := e.products[name].p
		w := p.Weight
		if w <= 0 {
			w = 1
		}
		g.names = append(g.names, name)
		g.weights = append(g.weights, w)
		g.byFcst[p.Forecast] = append(g.byFcst[p.Forecast], i)
		g.wsum += w
	}
	return g, nil
}

// diurnalAmplitude in [0,1) shapes the day curve; peakHour is its
// local-time maximum.
const (
	diurnalAmplitude = 0.6
	peakHour         = 9.0
)

// diurnal is the day-shape factor at simulation time t.
func (g *Generator) diurnal(t float64) float64 {
	h := math.Mod(t/3600, 24)
	return 1 + diurnalAmplitude*math.Cos(2*math.Pi*(h-peakHour)/24)
}

// loadStep is the batching interval in seconds: one event per step
// issues the whole step's requests via ArriveN, so 1M+ users cost ~1440
// events/day.
const loadStep = 60.0

// Start schedules one batch event per step until the horizon.
func (g *Generator) Start(until float64) {
	sched := g.edge.cfg.Engine.Scope("load")
	var step func()
	step = func() {
		g.emit(g.edge.cfg.Engine.Now())
		if g.edge.cfg.Engine.Now()+loadStep <= until {
			sched.After(loadStep, step)
		}
	}
	sched.After(loadStep, step)
}

// requestsPerUserDay is the mean daily request rate per user.
const requestsPerUserDay = 2.0

// emit issues one step's worth of requests, split over products by
// weight with small multiplicative jitter.
func (g *Generator) emit(now float64) {
	base := float64(g.cfg.Users) * requestsPerUserDay / 86400 * g.diurnal(now)
	// Storm surges: global multiplier, plus per-forecast focus.
	focus := make(map[string]float64)
	mult := 1.0
	for _, s := range g.cfg.Storms {
		if now < s.Start || now >= s.Start+s.Duration || s.Multiplier <= 1 {
			continue
		}
		if s.Forecast == "" {
			mult *= s.Multiplier
		} else {
			f := focus[s.Forecast]
			if f == 0 {
				f = 1
			}
			focus[s.Forecast] = f * s.Multiplier
		}
	}
	perStep := base * mult * loadStep
	for i, name := range g.names {
		share := perStep * g.weights[i] / g.wsum
		if f := focus[g.edge.products[name].p.Forecast]; f > 1 {
			share *= f
		}
		jitter := 0.9 + 0.2*g.rng.Float64()
		exp := share * jitter
		n := int64(exp)
		if g.rng.Float64() < exp-float64(n) {
			n++
		}
		if n > 0 {
			g.edge.ArriveN(name, n)
			g.total += n
		}
	}
}

// Total is the number of requests issued so far.
func (g *Generator) Total() int64 { return g.total }
