package integration

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/observe"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// growthCampaign is the growth scenario cut to its first 23 days, the way
// factory -days cuts it: long enough for the day-22 node additions.
func growthCampaign(t *testing.T, tel *telemetry.Telemetry) *factory.Campaign {
	t.Helper()
	cfg := factory.GrowthScenario()
	cfg.Days = 23
	var kept []factory.Event
	for _, e := range cfg.Events {
		if e.EventDay() < cfg.StartDay+cfg.Days {
			kept = append(kept, e)
		}
	}
	cfg.Events = kept
	cfg.Telemetry = tel
	c, err := factory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observedRun runs the growth campaign with every observer cmd/factory can
// attach, through the wiring it uses, and closes them out. The alert
// history and the trace join the observers' reports in the database.
func observedRun(t *testing.T) (*factory.Campaign, []factory.RunResult, *statsdb.DB) {
	t.Helper()
	tel := telemetry.New()
	c := growthCampaign(t, tel)
	o, err := observe.Observe(c, observe.Set{
		HarvestEvery: 6 * 3600, UsageEvery: 900, ServingUsers: 20000, Monitor: true, EngineProf: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := c.Run()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.LoadAlerts(o.DB, o.Mon.Alerts()); err != nil {
		t.Fatal(err)
	}
	if _, err := statsdb.LoadSpans(o.DB, tel.Trace().Spans()); err != nil {
		t.Fatal(err)
	}
	return c, results, o.DB
}

// runLogs returns every run.log under /runs, keyed by path.
func runLogs(t *testing.T, c *factory.Campaign) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := c.FS().Walk("/runs", func(info vfs.FileInfo) error {
		if info.IsDir || info.Name != logs.LogName {
			return nil
		}
		text, err := c.FS().ReadFile(info.Path)
		out[info.Path] = text
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObserversDoNotPerturbSimulation is the determinism oracle: the
// growth campaign run bare on one OS thread and run with every observer
// attached on all of them produces the same run results, bit for bit, and
// the same run logs; and the observers record the same tables on one OS
// thread as on all of them.
func TestObserversDoNotPerturbSimulation(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	bare := growthCampaign(t, nil)
	bareResults := bare.Run()
	_, _, oneProcDB := observedRun(t)
	runtime.GOMAXPROCS(prev)

	observed, obsResults, db := observedRun(t)

	if len(bareResults) != len(obsResults) {
		t.Fatalf("%d results bare, %d observed", len(bareResults), len(obsResults))
	}
	for i := range bareResults {
		a, b := bareResults[i], obsResults[i]
		// Floats compare by bit pattern: an unfinished run's End and
		// Walltime are NaN, which == never matches.
		for _, f := range [][2]*float64{{&a.Start, &b.Start}, {&a.End, &b.End}, {&a.Walltime, &b.Walltime},
			{&a.Code.CostFactor, &b.Code.CostFactor}} {
			if math.Float64bits(*f[0]) != math.Float64bits(*f[1]) {
				t.Fatalf("result %d differs:\nbare     %+v\nobserved %+v", i, bareResults[i], obsResults[i])
			}
			*f[0], *f[1] = 0, 0
		}
		if a != b {
			t.Fatalf("result %d differs:\nbare     %+v\nobserved %+v", i, bareResults[i], obsResults[i])
		}
	}

	bareLogs, obsLogs := runLogs(t, bare), runLogs(t, observed)
	if len(bareLogs) == 0 || len(bareLogs) != len(obsLogs) {
		t.Fatalf("%d run logs bare, %d observed", len(bareLogs), len(obsLogs))
	}
	for path, text := range bareLogs {
		if obsLogs[path] != text {
			t.Fatalf("%s differs:\nbare\n%s\nobserved\n%s", path, text, obsLogs[path])
		}
	}

	names := db.TableNames()
	if !slices.Equal(oneProcDB.TableNames(), names) {
		t.Fatalf("tables at GOMAXPROCS 1: %v, at %d: %v", oneProcDB.TableNames(), prev, names)
	}
	for _, name := range names {
		a, b := oneProcDB.Table(name), db.Table(name)
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d rows at GOMAXPROCS 1, %d at %d", name, a.Len(), b.Len(), prev)
		}
		ra, rb := rowsOf(a), rowsOf(b)
		for i := range ra {
			for j, col := range a.Schema() {
				va, vb := ra[i][j], rb[i][j]
				if name == engineprof.ProfileTableName && slices.Contains([]string{"wall_ns", "wall_max_ns", "wall_hist"}, col.Name) {
					continue // handler timings are wall-clock
				}
				// Values compare as structs; a NaN matches by its rendering.
				if va.Type() != vb.Type() || va != vb && va.String() != vb.String() {
					t.Fatalf("%s row %d %s: %v at GOMAXPROCS 1, %v at %d", name, i, col.Name, va, vb, prev)
				}
			}
		}
	}
}

// rowsOf returns a table's rows.
func rowsOf(t *statsdb.Table) [][]statsdb.Value {
	rows := make([][]statsdb.Value, t.Len())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}
