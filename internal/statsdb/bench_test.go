package statsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logs"
)

// benchRuns loads a runs table the size an operator's planning session
// queries: forecasts × days records over 200 nodes and four code
// versions, with seeded walltimes.
func benchRuns(tb testing.TB, forecasts, days int) *DB {
	tb.Helper()
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
				Status: logs.StatusCompleted, Products: 4,
			})
		}
	}
	db := NewDB()
	if _, err := LoadRuns(db, records); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkQuery runs the six query shapes of an operator's planning
// session over 80k runs rows: a full GROUP BY, indexed lookups on
// forecast, code version and node (one grouped), and range filters on
// walltime and day. Profile one shape with -bench 'Query/<name>'
// -cpuprofile.
func BenchmarkQuery(b *testing.B) {
	db := benchRuns(b, 2000, 40)
	shapes := []struct{ name, sql string }{
		{"group-all", "SELECT node, COUNT(*), AVG(walltime) FROM runs GROUP BY node"},
		{"forecast-probe", "SELECT day, walltime FROM runs WHERE forecast = 'fc-0042'"},
		{"version-probe", "SELECT forecast, day FROM runs WHERE code_version = 'elcirc-5.10' AND day >= 20"},
		{"walltime-range", "SELECT COUNT(*) FROM runs WHERE walltime >= 15000 AND walltime < 17000"},
		{"node-probe-group", "SELECT forecast, MAX(walltime) FROM runs WHERE node = 'node042' GROUP BY forecast"},
		{"day-range-group", "SELECT code_version, COUNT(*), SUM(walltime) FROM runs WHERE day >= 10 AND day <= 16 GROUP BY code_version"},
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
