package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFiles checks the CLIs' export helper writes exactly what the
// exporters render, notes each file, skips an empty path, and reports
// unwritable ones.
func TestWriteFiles(t *testing.T) {
	tel := New()
	tel.Registry().Counter("jobs_total", nil).Add(3)
	tel.Trace().End(tel.Trace().Begin("run", "sim", "fnode01", 0))
	var notes bytes.Buffer
	dir := t.TempDir()
	metrics, trace := filepath.Join(dir, "m.prom"), filepath.Join(dir, "t.json")
	if err := tel.WriteFiles(metrics, trace, &notes); err != nil {
		t.Fatal(err)
	}
	for path, write := range map[string]func(*bytes.Buffer) error{
		metrics: func(b *bytes.Buffer) error { return tel.Registry().WritePrometheus(b) },
		trace:   func(b *bytes.Buffer) error { return tel.Trace().WriteChromeTrace(b) },
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from the exporter's output", filepath.Base(path))
		}
	}
	wantNotes := "\nmetrics written to " + metrics + "\n\ntrace written to " + trace +
		" (1 spans; open in chrome://tracing)\n"
	if notes.String() != wantNotes {
		t.Errorf("notes = %q, want %q", notes.String(), wantNotes)
	}
	only := filepath.Join(dir, "only.prom")
	if err := tel.WriteFiles(only, "", io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(only); err != nil {
		t.Errorf("metrics-only export: %v", err)
	}
	if err := tel.WriteFiles(filepath.Join(dir, "missing", "m.prom"), "", io.Discard); err == nil {
		t.Error("unwritable path did not error")
	}
	var none *Telemetry
	if err := none.WriteFiles(metrics, trace, io.Discard); err != nil {
		t.Errorf("nil telemetry: %v", err)
	}
}
