package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", nil)
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", Labels{"queue": "products"})
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Same (name, labels) returns the same series.
	if r.Counter("events_total", nil) != c {
		t.Fatal("counter series not deduplicated")
	}
	if r.Gauge("depth", Labels{"queue": "products"}) != g {
		t.Fatal("gauge series not deduplicated")
	}
	if r.Gauge("depth", Labels{"queue": "other"}) == g {
		t.Fatal("distinct labels must make a distinct series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{1, 10, 100}, nil)
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindHistogram {
		t.Fatalf("snapshot = %+v", snap)
	}
	s := snap[0].Series[0]
	if s.Value != 560.5 {
		t.Fatalf("sum = %v, want 560.5", s.Value)
	}
	// Cumulative counts at bounds 1, 10, 100: 1, 3, 4; +Inf via Count=5.
	want := []uint64{1, 3, 4}
	for i, w := range want {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d", i, s.Cumulative[i], w)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", nil)
	c.Inc()
	r.Gauge("y", nil).Set(3)
	r.Histogram("z", nil, nil).Observe(1)
	if c.Value() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry must be inert")
	}
	var tel *Telemetry
	tel.Registry().Counter("x", nil).Inc()
	tel.Trace().End(tel.Trace().Begin("a", "b", "c", 0))
	tel.SetClock(nil)

	var tr *Tracer
	sp := tr.Begin("a", "b", "c", 0)
	tr.SetArg(sp, "k", "v")
	tr.End(sp)
	if sp != 0 || tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a metric name across kinds must panic")
		}
	}()
	r := NewRegistry()
	r.Counter("m", nil)
	r.Gauge("m", nil)
}

// TestConcurrentWriters exercises the registry under parallel writers of
// every instrument kind — the acceptance gate for `go test -race`.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := Labels{"worker": string(rune('a' + w%4))}
			for i := 0; i < iters; i++ {
				r.Counter("ops_total", labels).Inc()
				r.Gauge("depth", labels).Set(float64(i))
				r.Histogram("lat", nil, labels).Observe(float64(i % 97))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, f := range r.Snapshot() {
		if f.Name != "ops_total" {
			continue
		}
		for _, s := range f.Series {
			total += s.Value
		}
	}
	if total != workers*iters {
		t.Fatalf("ops_total = %v, want %d", total, workers*iters)
	}
}

// TestDescribeThenConcurrentFirstUse covers the race between Describe
// pre-declaring a family and its first concurrent instrument use
// resolving the family kind.
func TestDescribeThenConcurrentFirstUse(t *testing.T) {
	r := NewRegistry()
	r.Describe("racy_total", "pre-declared")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("racy_total", nil).Inc()
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Help != "pre-declared" || snap[0].Kind != KindCounter {
		t.Fatalf("snapshot = %+v, want one described counter family", snap)
	}
	if got := snap[0].Series[0].Value; got != 8 {
		t.Fatalf("racy_total = %v, want 8", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Describe("runs_total", "Completed factory runs.")
	r.Counter("runs_total", Labels{"forecast": "f1"}).Add(3)
	r.Gauge("clock_seconds", nil).Set(86400)
	h := r.Histogram("walltime_seconds", []float64{100, 1000}, nil)
	h.Observe(50)
	h.Observe(5000)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP runs_total Completed factory runs.",
		"# TYPE runs_total counter",
		`runs_total{forecast="f1"} 3`,
		"# TYPE clock_seconds gauge",
		"clock_seconds 86400",
		`walltime_seconds_bucket{le="100"} 1`,
		`walltime_seconds_bucket{le="1000"} 1`,
		`walltime_seconds_bucket{le="+Inf"} 2`,
		"walltime_seconds_sum 5050",
		"walltime_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
