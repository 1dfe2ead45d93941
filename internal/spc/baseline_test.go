package spc

import (
	"testing"

	"repro/internal/logs"
	"repro/internal/statsdb"
)

// A deterministic campaign repeats each run's walltime exactly. Its
// harvested history holds that walltime rounded by the logs to 0.01 s,
// so the baseline has zero spread and sits a few milliseconds off every
// live observation — always on the same side. Judged at full precision
// that rounding gap reads as |z| ≈ 200 on every point (we1, then we4
// after eight); judged at the logs' resolution the series is in control.
func TestSeededSteadyHistoryStaysInControl(t *testing.T) {
	const walltime = 15323.916668579972
	db := statsdb.NewDB()
	for day := 1; day <= 3; day++ {
		start := float64(day-1)*86400 + 3600
		logged, err := logs.Parse(logs.Format(&logs.RunRecord{
			Forecast: "forecast-grays", Region: "grays", Year: 2005, Day: day,
			Node: "fnode01", CodeVersion: "elcirc-5.01", CodeFactor: 1,
			MeshName: "m", MeshSides: 100, Timesteps: 10,
			Start: start, End: start + walltime, Walltime: walltime,
			Status: logs.StatusCompleted,
		}))
		if err != nil {
			t.Fatal(err)
		}
		if logged.Walltime != 15323.92 {
			t.Fatalf("logged walltime = %v, want the %%.2f rounding 15323.92", logged.Walltime)
		}
		if _, err := statsdb.LoadRuns(db, []*logs.RunRecord{logged}); err != nil {
			t.Fatal(err)
		}
	}
	o := New(DefaultParams())
	if _, err := o.SeedFromDB(db); err != nil {
		t.Fatal(err)
	}
	for day := 4; day < 16; day++ {
		end := float64(day-1)*86400 + 3600 + walltime
		o.ObserveRun(RunObs{Forecast: "forecast-grays", Day: day, Walltime: walltime, End: end})
	}
	sr := find(o.Report(), KindRunTime, "forecast-grays")
	if sr == nil || len(sr.Points) != 12 {
		t.Fatalf("seeded series = %+v, want 12 judged points", sr)
	}
	for _, p := range sr.Points {
		if p.Learning || p.Out {
			t.Errorf("day %d: learning=%v rules=%v z=%g against center %v", p.Day, p.Learning, p.Rules, p.Z, p.Center)
		}
	}
	if sr.Violations != 0 || sr.Out {
		t.Fatalf("steady history judged out of control: %d violations, out=%v", sr.Violations, sr.Out)
	}
}
