package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// WriteFiles exports the registry in the Prometheus text format to
// metricsPath and the trace as Chrome trace-event JSON to tracePath, the
// files behind every CLI's -metrics-out and -trace-out, and notes each
// file written on notes. An empty path skips that export, and a nil
// Telemetry writes nothing.
func (t *Telemetry) WriteFiles(metricsPath, tracePath string, notes io.Writer) error {
	if t == nil {
		return nil
	}
	for _, out := range []struct {
		path, what, detail string
		write              func(io.Writer) error
	}{
		{metricsPath, "metrics", "", t.Metrics.WritePrometheus},
		{tracePath, "trace", fmt.Sprintf(" (%d spans; open in chrome://tracing)", t.Tracer.Len()), t.Tracer.WriteChromeTrace},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err == nil {
			err = out.write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(notes, "\n%s written to %s%s\n", out.what, out.path, out.detail)
	}
	return nil
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): `# HELP` / `# TYPE` headers per family, one
// line per series, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Series {
			switch f.Kind {
			case KindCounter, KindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					f.Name, promLabels(s.Labels, "", 0), promFloat(s.Value)); err != nil {
					return err
				}
			case KindHistogram:
				for i, bound := range s.Bounds {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, promLabels(s.Labels, "le", bound), s.Cumulative[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.Name, promLabels(s.Labels, "le", math.Inf(1)), s.Count); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, promLabels(s.Labels, "", 0), promFloat(s.Value)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, promLabels(s.Labels, "", 0), s.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// promLabels renders a label set, optionally with an extra `le` bound
// label (histogram buckets), as `{k="v",...}` or "" when empty.
func promLabels(labels Labels, extraKey string, bound float64) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, promFloat(bound))
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a float the way Prometheus expects (+Inf, not +Inf64).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// jsonSeries mirrors SeriesSnapshot with stable JSON field names.
type jsonSeries struct {
	Labels     Labels    `json:"labels,omitempty"`
	Value      float64   `json:"value"`
	Count      uint64    `json:"count,omitempty"`
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []uint64  `json:"cumulative,omitempty"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Kind   string       `json:"kind"`
	Help   string       `json:"help,omitempty"`
	Series []jsonSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON array of metric families, for
// programmatic consumers that do not speak the Prometheus text format.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.Snapshot()
	out := make([]jsonFamily, 0, len(fams))
	for _, f := range fams {
		jf := jsonFamily{Name: f.Name, Kind: f.Kind.String(), Help: f.Help}
		for _, s := range f.Series {
			jf.Series = append(jf.Series, jsonSeries{
				Labels: s.Labels, Value: s.Value, Count: s.Count,
				Bounds: s.Bounds, Cumulative: s.Cumulative,
			})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
