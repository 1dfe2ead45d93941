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

// harvestedRuns creates a runs table carrying the harvester's provenance
// columns.
func harvestedRuns(db *DB) error {
	t, err := EnsureRunsTable(db)
	if err == nil {
		err = t.AddColumn(Column{Name: ColHarvestedAt, Type: Float}, FloatVal(0))
	}
	if err == nil {
		err = t.AddColumn(Column{Name: ColSourcePath, Type: String}, StringVal(""))
	}
	return err
}

// BenchmarkUpsertRuns is a cold harvest of 60k run logs: one UpsertRuns
// per parsed log into a runs table carrying the harvester's provenance
// columns, as harvest.Harvester.Pass does.
func BenchmarkUpsertRuns(b *testing.B) {
	records := benchRecords(1500, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB()
		err := harvestedRuns(db)
		for _, r := range records {
			if err != nil {
				break
			}
			_, _, err = UpsertRuns(db, []*logs.RunRecord{r}, r.End)
		}
		if err != nil {
			b.Fatal(err)
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

// BenchmarkLoadSpans loads an observed fig-8 campaign's trace, ~190k
// spans: a run span per forecast-day on its node, product-task spans
// under it, and rsync transfers on their links.
func BenchmarkLoadSpans(b *testing.B) {
	var spans []telemetry.Span
	id := int64(0)
	add := func(parent int64, cat, name, track string, start, end float64, args map[string]string) int64 {
		id++
		spans = append(spans, telemetry.Span{ID: id, Parent: parent, Cat: cat, Name: name, Track: track,
			Start: start, End: end, Args: args})
		return id
	}
	for day := 1; day <= 76; day++ {
		for f := 0; f < 50; f++ {
			fc, node := fmt.Sprintf("fc-%02d", f), fmt.Sprintf("fnode%02d", 1+f%6)
			args := map[string]string{"forecast": fc, "day": fmt.Sprint(day), "node": node}
			start := float64(day)*86400 + float64(f)*600
			run := add(0, "run", fc, node, start, start+30000, args)
			for p := 0; p < 48; p++ {
				add(run, "task", fmt.Sprintf("product-%02d", p), node, start+float64(p)*600, start+float64(p)*600+300,
					map[string]string{"forecast": fc, "day": fmt.Sprint(day)})
			}
			add(run, "transfer", "rsync", "link-"+node, start+30000, start+30600, args)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSpans(NewDB(), spans); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery runs the query shapes of an operator's planning session
// over 80k harvested runs rows: a full GROUP BY, indexed lookups on
// forecast, code version and node (one grouped), range filters on
// walltime and day, and a forecast lookup narrowed by source_path, a
// string column with a value per row. Profile one shape with
// -bench 'Query/<name>' -cpuprofile.
func BenchmarkQuery(b *testing.B) {
	db := NewDB()
	err := harvestedRuns(db)
	if err == nil {
		_, _, err = UpsertRuns(db, benchRecords(2000, 40), 0)
	}
	if err != nil {
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
