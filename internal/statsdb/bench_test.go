package statsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logs"
	"repro/internal/telemetry"
)

// benchRecords makes forecasts × days run records over 200 nodes and four
// code versions, with seeded walltimes and a log path each.
func benchRecords(forecasts, days int) []*logs.RunRecord {
	rng := rand.New(rand.NewSource(1))
	versions := []string{"elcirc-5.01", "elcirc-5.02", "elcirc-5.10", "elcirc-5.11"}
	var records []*logs.RunRecord
	for f := 0; f < forecasts; f++ {
		for d := 1; d <= days; d++ {
			wall := math.Round((10000+20000*rng.Float64())*100) / 100
			start := float64(d-1)*86400 + 3600
			records = append(records, &logs.RunRecord{
				Forecast: fmt.Sprintf("fc-%04d", f), Region: fmt.Sprintf("region-%02d", f%40), Year: 2005, Day: d,
				Node: fmt.Sprintf("node%03d", (f+d/10)%200), CodeVersion: versions[(f+d/15)%len(versions)], CodeFactor: 1,
				MeshName: "m", MeshSides: 30000, Timesteps: 5760, Start: start, End: start + wall, Walltime: wall,
				Status: logs.StatusCompleted, Products: 4, SourcePath: logs.LogPath(logs.RunDir(fmt.Sprintf("fc-%04d", f), 2005, d)),
			})
		}
	}
	return records
}

// benchRuns loads a runs table the size an operator's planning session
// queries.
func benchRuns(tb testing.TB, forecasts, days int) *DB {
	tb.Helper()
	db := NewDB()
	if _, err := LoadRuns(db, benchRecords(forecasts, days)); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkUpsertRuns is a cold harvest of 60k run logs: one UpsertRuns
// per parsed log, as harvest.Harvester.Pass does.
func BenchmarkUpsertRuns(b *testing.B) {
	records := benchRecords(1500, 40)
	for _, r := range records {
		r.HarvestedAt = r.End // as a pass stamps each log it ingests
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB()
		for _, r := range records {
			if _, _, err := UpsertRuns(db, []*logs.RunRecord{r}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReadRuns reads the 60k records back, as each planning-session
// day's harvest.Harvester.Records does.
func BenchmarkReadRuns(b *testing.B) {
	db := benchRuns(b, 1500, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRuns(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSpans loads an observed fig-8 campaign's trace into a
// fresh table, as the campaign's close-out does. The trace is recorded
// through a tracer in the campaign's shape (see campaignTrace).
func BenchmarkLoadSpans(b *testing.B) {
	spans := campaignTrace().Spans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSpans(NewDB(), spans); err != nil {
			b.Fatal(err)
		}
	}
}

// campaignTrace records the shape of an observed fig-8 campaign's trace:
// 76 day spans, 282 runs on 5 nodes, each a simulation span and 680
// product-task spans interleaved with its day's other runs, and 316
// harvest passes: ~192k spans, 689 names on 7 tracks. Only run spans
// carry annotations, as in the campaign.
func campaignTrace() *telemetry.Tracer {
	clock := 0.0
	tr := telemetry.NewTracer(func() float64 { return clock })
	campaign := tr.Begin("campaign", "campaign-2005", "factory", 0)
	var prods [6]string
	for i := range prods {
		prods[i] = fmt.Sprintf("prod:p%d", i)
	}
	pass := 0
	for day := 1; day <= 76; day++ {
		clock = float64(day-1) * 86400
		daySpan := tr.Begin("day", fmt.Sprintf("day-%03d", day), "factory", campaign)
		var runs, sims []int64
		for r := 0; r < 3 || r < 4 && day <= 54; r++ { // 54 days of 4 runs, 22 of 3
			fc, node := fmt.Sprintf("fc-%d", (day+r)%8), fmt.Sprintf("fnode%02d", 1+(day+r)%5)
			run := tr.Begin("run", fmt.Sprintf("%s/%d", fc, day), node, daySpan)
			tr.SetArg(run, "forecast", fc)
			tr.SetArg(run, "day", fmt.Sprint(day))
			tr.SetArg(run, "node", node)
			runs, sims = append(runs, run), append(sims, tr.Begin("simulation", "sim:"+fc, "", run))
		}
		clock += 3600
		for _, sim := range sims {
			tr.End(sim)
		}
		// Each run keeps six product tasks in flight; a step ends one at
		// random and starts the next, so tasks overlap and end out of
		// start order.
		open := make([][6]int64, len(runs))
		x := uint32(day)
		for p := 0; p < 680; p++ {
			clock += 60
			x = x*1103515245 + 12345
			slot := x >> 16 % 6
			for r, run := range runs {
				tr.End(open[r][slot])
				open[r][slot] = tr.Begin("product", prods[slot], "", run)
			}
			if p%170 == 0 || p == 85 && day%6 == 0 { // 4 passes a day, 5 every 6th
				pass++
				tr.End(tr.Begin("harvest", fmt.Sprintf("pass-%03d", pass), "harvest", 0))
			}
		}
		clock += 600
		for r, run := range runs {
			for _, id := range open[r] {
				tr.End(id)
			}
			tr.End(run)
		}
		tr.End(daySpan)
	}
	tr.End(campaign)
	return tr
}

// BenchmarkQuery runs the query shapes of an operator's planning session
// over 80k harvested runs rows: a full GROUP BY, indexed lookups on
// forecast, code version and node (one grouped), range filters on
// walltime and day, and a forecast lookup narrowed by source_path, a
// string column with a value per row. Profile one shape with
// -bench 'Query/<name>' -cpuprofile.
func BenchmarkQuery(b *testing.B) {
	db := NewDB()
	if _, _, err := UpsertRuns(db, benchRecords(2000, 40)); err != nil {
		b.Fatal(err)
	}
	shapes := []struct{ name, sql string }{
		{"group-all", "SELECT node, COUNT(*), AVG(walltime) FROM runs GROUP BY node"},
		{"forecast-probe", "SELECT day, walltime FROM runs WHERE forecast = 'fc-0042'"},
		{"version-probe", "SELECT forecast, day FROM runs WHERE code_version = 'elcirc-5.10' AND day >= 20"},
		{"walltime-range", "SELECT COUNT(*) FROM runs WHERE walltime >= 15000 AND walltime < 17000"},
		{"node-probe-group", "SELECT forecast, MAX(walltime) FROM runs WHERE node = 'node042' GROUP BY forecast"},
		{"day-range-group", "SELECT code_version, COUNT(*), SUM(walltime) FROM runs WHERE day >= 10 AND day <= 16 GROUP BY code_version"},
		{"forecast-probe-path", "SELECT day, walltime FROM runs WHERE forecast = 'fc-0042' AND source_path = '" +
			logs.LogPath(logs.RunDir("fc-0042", 2005, 7)) + "'"},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(sh.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
