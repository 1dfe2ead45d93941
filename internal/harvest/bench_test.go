package harvest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/logs"
	"repro/internal/statsdb"
	"repro/internal/vfs"
)

// benchTree builds a run tree with forecasts×days logs.
func benchTree(tb testing.TB, forecasts, days int) *vfs.FS {
	tb.Helper()
	fs := vfs.New(nil)
	for i := 0; i < forecasts; i++ {
		name := fmt.Sprintf("forecast-%03d", i)
		for d := 1; d <= days; d++ {
			if err := logs.Write(fs, record(name, d, "elcirc-5.01")); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return fs
}

// BenchmarkHarvestColdPass measures a first pass over a 200-log tree:
// every body read, parsed, and upserted.
func BenchmarkHarvestColdPass(b *testing.B) {
	fs := benchTree(b, 50, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Pass(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarvestWarmPass measures the watermark fast path: the same
// tree, nothing changed, no body reads.
func BenchmarkHarvestWarmPass(b *testing.B) {
	fs := benchTree(b, 50, 4)
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Pass(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Pass(); err != nil {
			b.Fatal(err)
		}
	}
}

// Daily passes run over dailyForecasts forecasts with dailyHistDays days
// harvested: a planning session's shape.
const dailyForecasts, dailyHistDays = 2000, 30

// dailyHarvest writes dailyHistDays days of logs and harvests them, and
// returns the harvester with writeDay, which writes day d's logs (days
// past 366 roll into the next year).
func dailyHarvest(tb testing.TB) (h *Harvester, writeDay func(d int)) {
	clock := 0.0
	fs := vfs.New(func() float64 { return clock })
	writeDay = func(d int) {
		clock = float64(d) * 86400
		for f := 0; f < dailyForecasts; f++ {
			r := record(fmt.Sprintf("forecast-%04d", f), (d-1)%366+1, "elcirc-5.01")
			r.Year += (d - 1) / 366
			r.Start, r.End = clock, clock+r.Walltime
			if err := logs.Write(fs, r); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for d := 1; d <= dailyHistDays; d++ {
		writeDay(d)
	}
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{Clock: func() float64 { return clock }})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := h.Pass(); err != nil {
		tb.Fatal(err)
	}
	return h, writeDay
}

// BenchmarkHarvestDailyPass times the pass of an operator's day: each
// iteration writes one more day of 2,000 logs with the timer stopped and
// times the pass that ingests them. BenchmarkHarvestWarmPass's 200
// unchanged logs cannot show what a pass pays per unchanged log of a
// large tree.
func BenchmarkHarvestDailyPass(b *testing.B) {
	h, writeDay := dailyHarvest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		writeDay(dailyHistDays + 1 + i)
		b.StartTimer()
		if st, err := h.Pass(); err != nil || st.Ingested != dailyForecasts {
			b.Fatalf("daily pass = %+v, %v; want %d ingested", st, err, dailyForecasts)
		}
	}
}

// BenchmarkRecords reads 80k harvested runs back as sorted records, in
// the row order an operator's session leaves behind: a cold harvest of 30
// days in walk order (forecast, then day), then each later day's logs
// appended as a daily pass finds them.
func BenchmarkRecords(b *testing.B) {
	const forecasts, histDays, days = 2000, 30, 40
	db := statsdb.NewDB()
	h, err := New(vfs.New(nil), db, NewVFSJournal(vfs.New(nil), "/j"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var records []*logs.RunRecord
	add := func(f, d int) {
		records = append(records, record(fmt.Sprintf("forecast-%04d", f), d, "elcirc-5.01"))
	}
	for f := 0; f < forecasts; f++ {
		for d := 1; d <= histDays; d++ {
			add(f, d)
		}
	}
	for d := histDays + 1; d <= days; d++ {
		for f := 0; f < forecasts; f++ {
			add(f, d)
		}
	}
	if _, _, err := statsdb.UpsertRuns(db, records); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := h.Records(); err != nil || len(got) != len(records) {
			b.Fatalf("Records = %d records, %v; want %d", len(got), err, len(records))
		}
	}
}

// TestEmitBenchReport writes a machine-readable harvest benchmark to the
// file named by BENCH_OUT; `make bench` sets it and CI uploads the result
// as an artifact. Without BENCH_OUT the test is skipped.
func TestEmitBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set")
	}
	const forecasts, days = 100, 4
	fs := benchTree(t, forecasts, days)
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start).Seconds()
	if st.Ingested != forecasts*days {
		t.Fatalf("cold pass ingested %d, want %d", st.Ingested, forecasts*days)
	}
	const warmIters = 20
	start = time.Now()
	for i := 0; i < warmIters; i++ {
		if _, err := h.Pass(); err != nil {
			t.Fatal(err)
		}
	}
	warm := time.Since(start).Seconds() / warmIters
	// The daily pass: the minimum over a few days of the pass that ingests
	// a day's logs. tree_logs is the history the first of those days lands
	// on; each day adds dailyForecasts more.
	dh, writeDay := dailyHarvest(t)
	daily := math.Inf(1)
	for d := dailyHistDays + 1; d <= dailyHistDays+5; d++ {
		writeDay(d)
		start = time.Now()
		if st, err := dh.Pass(); err != nil || st.Ingested != dailyForecasts {
			t.Fatalf("daily pass = %+v, %v; want %d ingested", st, err, dailyForecasts)
		}
		daily = min(daily, time.Since(start).Seconds())
	}
	report := map[string]any{
		"logs":               forecasts * days,
		"cold_pass_seconds":  cold,
		"warm_pass_seconds":  warm,
		"warm_speedup":       cold / warm,
		"records_per_second": float64(st.Ingested) / cold,
		"daily_pass_seconds": daily,
		"daily_logs":         dailyForecasts,
		"tree_logs":          dailyForecasts * dailyHistDays,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", out, data)
}
