package telemetry

import "testing"

// snapshotValue is the scan Registry.Value replaces, as the monitor ran
// it: the first series of the named family in Snapshot whose labels
// match the selector, its value for a counter or gauge and its count for
// a histogram.
func snapshotValue(r *Registry, name string, labels Labels) (float64, bool) {
	match := func(a, b Labels) bool {
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	for _, f := range r.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if !match(s.Labels, labels) {
				continue
			}
			if f.Kind == KindHistogram {
				return float64(s.Count), true
			}
			return s.Value, true
		}
	}
	return 0, false
}

// Value answers every read exactly as the snapshot scan does: counters,
// gauges and histograms, labelled and unlabelled series, absent names
// and selectors, a described-but-unused family, and a series created
// between two reads.
func TestValueMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Describe("described_only", "never used")
	r.Counter("jobs_total", nil).Add(3)
	r.Counter("jobs_total", Labels{"node": "n1"}).Add(5)
	r.Gauge("node_util", Labels{"node": "n1", "kind": "cpu"}).Set(0.75)
	r.Gauge("clock", nil).Set(-2.5)
	h := r.Histogram("walltime", nil, Labels{"forecast": "f"})
	h.Observe(10)
	h.Observe(2e5)
	// A label value holding the key separators shares a series key with
	// a two-label set, and must not answer for it.
	r.Gauge("tricky", Labels{"a": "1,b=2"}).Set(9)

	reads := []struct {
		name   string
		labels Labels
	}{
		{"jobs_total", nil},
		{"jobs_total", Labels{}},
		{"jobs_total", Labels{"node": "n1"}},
		{"jobs_total", Labels{"node": "n2"}},
		{"node_util", Labels{"kind": "cpu", "node": "n1"}},
		{"node_util", nil},
		{"clock", nil},
		{"walltime", Labels{"forecast": "f"}},
		{"walltime", nil},
		{"absent", nil},
		{"described_only", nil},
		{"tricky", Labels{"a": "1,b=2"}},
		{"tricky", Labels{"a": "1", "b": "2"}},
		{"late", nil},
	}
	check := func(when string) {
		t.Helper()
		for _, rd := range reads {
			gv, gok := r.Value(rd.name, rd.labels)
			wv, wok := snapshotValue(r, rd.name, rd.labels)
			if gv != wv || gok != wok {
				t.Errorf("%s: Value(%s, %v) = %v, %v; the snapshot reads %v, %v", when, rd.name, rd.labels, gv, gok, wv, wok)
			}
		}
	}
	check("first read")
	if v, ok := r.Value("walltime", Labels{"forecast": "f"}); v != 2 || !ok {
		t.Fatalf("histogram reads %v, %v; want its count 2", v, ok)
	}
	if _, ok := r.Value("described_only", nil); ok {
		t.Fatal("a described-but-unused family has a value")
	}
	r.Counter("late", nil).Add(4)
	r.Counter("jobs_total", Labels{"node": "n2"}).Inc()
	check("after new series")
	if v, ok := r.Value("late", nil); v != 4 || !ok {
		t.Fatalf("a series created between reads reads %v, %v; want 4, true", v, ok)
	}
	// The scan's label match took an empty value for a missing key, so
	// a selector could read another series; Value matches keys exactly.
	r.Gauge("blank", Labels{"x": ""}).Set(1)
	if v, ok := r.Value("blank", Labels{"y": "z"}); ok {
		t.Fatalf("selector {y=z} reads series {x=} as %v", v)
	}
	if v, ok := r.Value("blank", Labels{"x": ""}); v != 1 || !ok {
		t.Fatalf("series {x=} reads %v, %v; want 1, true", v, ok)
	}
	var nilReg *Registry
	if _, ok := nilReg.Value("jobs_total", nil); ok {
		t.Fatal("a nil registry has a value")
	}
}
