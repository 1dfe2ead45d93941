// Package telemetry is the factory's measurement substrate: a
// concurrency-safe metrics registry (counters, gauges, histograms with
// labels) and a sim-time tracer producing hierarchical spans.
//
// The paper's §4.3 argument is that the forecast factory is only
// manageable when run behaviour is harvested into a queryable statistics
// store. The seed repository reconstructed behaviour after the fact by
// crawling log files; this package collects it online instead, the way
// Tuor et al. feed scheduler decisions from continuously collected run
// telemetry. Metrics export as Prometheus text; spans export as
// Chrome trace-event JSON (chrome://tracing) and load into
// internal/statsdb so they are SQL-queryable alongside run records.
//
// Every type in this package is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge, *Histogram or *Tracer are no-ops. Code instruments
// its hot paths unconditionally and pays (almost) nothing when telemetry
// is disabled.
package telemetry

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus terms.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Labels attach dimensions to a metric series, e.g.
// {"forecast": "forecast-tillamook"}.
type Labels map[string]string

// Counter is a monotonically increasing metric series. The zero value via
// Registry.Counter is ready to use; a nil Counter ignores all operations.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative or NaN deltas are ignored (counters
// are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || !(v > 0) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric series that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultBuckets are histogram bucket upper bounds suited to the
// factory's second-scale latencies: 1 s up to 24 h, roughly ×4 apart.
var DefaultBuckets = []float64{1, 4, 15, 60, 300, 900, 3600, 14400, 43200, 86400}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample. NaN samples are ignored.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot returns bounds and cumulative counts.
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return bounds, cumulative, h.sum, h.count
}

// series is one labelled instance of a metric family.
type series struct {
	labels    Labels
	sortedKey string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64 // histogram families only

	mu     sync.RWMutex
	series map[string]*series
}

// Registry holds metric families. It is safe for concurrent use; create
// one with NewRegistry. A nil Registry hands out nil instruments, whose
// operations are no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Describe sets a metric family's help text, shown as the Prometheus
// `# HELP` line. Describing an unknown name pre-declares nothing; the
// text attaches when the family is first created.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
		return
	}
	// Remember the help for the family once an instrument creates it.
	r.families[name] = &family{name: name, help: help, kind: -1, series: make(map[string]*series)}
}

// labelKey builds a canonical key for a label set.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// getSeries finds or creates the series for (name, kind, labels). It
// panics on a kind clash: reusing one metric name with two kinds is a
// programming error that would corrupt exports.
func (r *Registry) getSeries(name string, kind Kind, bounds []float64, labels Labels) *series {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil || f.kind == -1 {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]*series)}
			r.families[name] = f
		} else if f.kind == -1 { // pre-declared by Describe
			f.kind = kind
			f.bounds = bounds
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}

	key := labelKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: cloneLabels(labels), sortedKey: key}
	switch kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		b := f.bounds
		if len(b) == 0 {
			b = DefaultBuckets
		}
		s.hist = &Histogram{bounds: append([]float64(nil), b...), counts: make([]uint64, len(b)+1)}
	}
	f.series[key] = s
	return s
}

func cloneLabels(labels Labels) Labels {
	if len(labels) == 0 {
		return nil
	}
	out := make(Labels, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// Counter returns the counter series for (name, labels), creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, KindCounter, nil, labels).counter
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, KindGauge, nil, labels).gauge
}

// Histogram returns the histogram series for (name, labels). buckets (may
// be nil for DefaultBuckets) takes effect only when the family is first
// created.
func (r *Registry) Histogram(name string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) > 0 && !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q buckets are not sorted", name))
	}
	return r.getSeries(name, KindHistogram, buckets, labels).hist
}

// Value reads one series as Snapshot exports it, without copying or
// sorting anything: a counter's or gauge's value, or a histogram's
// observation count. It reports false for a series that does not exist.
func (r *Registry) Value(name string, labels Labels) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	f.mu.RLock()
	s := f.series[labelKey(labels)]
	f.mu.RUnlock()
	switch {
	case s == nil || !maps.Equal(s.labels, labels):
		return 0, false
	case s.hist != nil:
		return float64(s.hist.Count()), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	}
	return s.counter.Value(), true
}

// SeriesSnapshot is one exported series.
type SeriesSnapshot struct {
	Labels Labels
	// Value is the counter/gauge value; histograms report Sum here.
	Value float64
	// Histogram-only fields.
	Count      uint64
	Bounds     []float64
	Cumulative []uint64
}

// FamilySnapshot is one exported metric family.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot captures every family and series, sorted by name then label
// key, for exporters and tests.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	// Describe rewrites a family's help and getSeries its kind under the
	// registry lock, so both are copied while it is held.
	type head struct {
		f  *family
		fs FamilySnapshot
	}
	r.mu.RLock()
	heads := make([]head, 0, len(r.families))
	for _, f := range r.families {
		if f.kind == -1 {
			continue // described but never used
		}
		heads = append(heads, head{f, FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}})
	}
	r.mu.RUnlock()
	sort.Slice(heads, func(i, j int) bool { return heads[i].fs.Name < heads[j].fs.Name })

	out := make([]FamilySnapshot, 0, len(heads))
	for _, h := range heads {
		f, fs := h.f, h.fs
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{Labels: cloneLabels(s.labels)}
			switch fs.Kind {
			case KindCounter:
				ss.Value = s.counter.Value()
			case KindGauge:
				ss.Value = s.gauge.Value()
			case KindHistogram:
				ss.Bounds, ss.Cumulative, ss.Value, ss.Count = s.hist.snapshot()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}
