package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPrometheusLabelEscaping checks that label values containing quotes,
// backslashes, and newlines come out escaped per the text exposition
// format, so one hostile forecast name cannot corrupt the whole scrape.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct{ name, value string }{
		{"quote", `run "tillamook"`},
		{"backslash", `C:\runs\day4`},
		{"newline", "line1\nline2"},
		{"mixed", "a\\b\"c\nd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("escaped_total", Labels{"forecast": tc.value}).Inc()
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			want := fmt.Sprintf("escaped_total{forecast=%q} 1", tc.value)
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
			// The series line must stay a single line: the raw newline may
			// not survive unescaped.
			for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
				if strings.HasPrefix(line, "escaped_total") && !strings.HasSuffix(line, " 1") {
					t.Errorf("series line split by unescaped newline: %q", line)
				}
			}
		})
	}
}

// TestWritePrometheusEmptyRegistry renders empty and nil registries: no
// families means no output, not an error.
func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var b bytes.Buffer
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty registry wrote %q", b.String())
	}
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry: err=%v out=%q", err, b.String())
	}
}

// TestHistogramBucketBoundarySemantics pins down the `le` contract: an
// observation exactly at a bucket bound counts into that bucket.
func TestHistogramBucketBoundarySemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wt", []float64{10, 20}, nil)
	h.Observe(10) // exactly at the first bound: le="10"
	h.Observe(20) // exactly at the second bound: le="20"
	h.Observe(20.0000001)

	snap := r.Snapshot()
	s := snap[0].Series[0]
	if s.Cumulative[0] != 1 || s.Cumulative[1] != 2 {
		t.Fatalf("cumulative = %v, want [1 2] (bound values land in their own bucket)", s.Cumulative)
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3 (overflow lands in +Inf only)", s.Count)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wt_bucket{le="10"} 1`,
		`wt_bucket{le="20"} 2`,
		`wt_bucket{le="+Inf"} 3`,
		"wt_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusInfinityValues renders infinite gauge values in
// Prometheus spelling (+Inf / -Inf, not Go's +Inf64).
func TestPrometheusInfinityValues(t *testing.T) {
	r := NewRegistry()
	r.Gauge("up", nil).Set(math.Inf(1))
	r.Gauge("down", nil).Set(math.Inf(-1))
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "up +Inf\n") || !strings.Contains(out, "down -Inf\n") {
		t.Errorf("infinite gauges rendered wrong:\n%s", out)
	}
}
