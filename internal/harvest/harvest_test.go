package harvest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/logs"
	"repro/internal/sim"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// countingFS wraps a vfs and counts body reads, proving the watermark
// fast path never opens unchanged logs.
type countingFS struct {
	*vfs.FS
	reads int
}

func (c *countingFS) ReadFile(path string) (string, error) {
	c.reads++
	return c.FS.ReadFile(path)
}

func record(forecast string, day int, code string) *logs.RunRecord {
	return &logs.RunRecord{
		Forecast:    forecast,
		Region:      "r",
		Year:        2005,
		Day:         day,
		Node:        "fnode01",
		CodeVersion: code,
		CodeFactor:  1,
		MeshName:    "m",
		MeshSides:   30000,
		Timesteps:   5760,
		Start:       float64(day) * 86400,
		End:         float64(day)*86400 + 40000,
		Walltime:    40000,
		Status:      logs.StatusCompleted,
		Products:    8,
	}
}

// tree writes n run logs per forecast into a fresh vfs whose mtimes come
// from clock.
func tree(t testing.TB, clock *float64, forecasts []string, days int) *vfs.FS {
	t.Helper()
	fs := vfs.New(func() float64 { return *clock })
	for _, f := range forecasts {
		for d := 1; d <= days; d++ {
			if err := logs.Write(fs, record(f, d, "elcirc-5.01")); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs
}

func newHarvester(t *testing.T, fs FS, clock *float64) *Harvester {
	t.Helper()
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/harvest/journal.jsonl"),
		Options{Clock: func() float64 { return *clock }})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPassIngestsTreeIncrementally(t *testing.T) {
	clock := 100.0
	base := tree(t, &clock, []string{"forecast-a", "forecast-b"}, 3)
	fs := &countingFS{FS: base}
	h := newHarvester(t, fs, &clock)

	// Cold pass: every log read and ingested.
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 6 || st.BodiesRead != 6 || st.Ingested != 6 || st.WatermarkHits != 0 {
		t.Fatalf("cold pass = %+v", st)
	}

	// Warm pass over the unchanged tree: zero ingests AND zero body reads.
	fs.reads = 0
	clock = 200
	st, err = h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 0 || st.Updated != 0 || st.BodiesRead != 0 || st.WatermarkHits != 6 {
		t.Fatalf("warm pass = %+v", st)
	}
	if fs.reads != 0 {
		t.Fatalf("warm pass read %d log bodies, want 0", fs.reads)
	}

	// One new run dir: exactly its records ingested, nothing else re-read.
	clock = 300
	if err := logs.Write(base, record("forecast-a", 4, "elcirc-5.02")); err != nil {
		t.Fatal(err)
	}
	fs.reads = 0
	st, err = h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.BodiesRead != 1 || st.WatermarkHits != 6 {
		t.Fatalf("incremental pass = %+v", st)
	}
	if fs.reads != 1 {
		t.Fatalf("incremental pass read %d bodies, want 1", fs.reads)
	}
	if n := h.db.Table(statsdb.RunsTableName).Len(); n != 7 {
		t.Fatalf("runs table has %d rows, want 7", n)
	}
}

func TestPassUpdatesChangedLogInPlace(t *testing.T) {
	clock := 50.0
	fs := vfs.New(func() float64 { return clock })
	running := record("forecast-a", 1, "v1")
	running.Status = logs.StatusRunning
	running.End, running.Walltime = 0, 0
	if err := logs.Write(fs, running); err != nil {
		t.Fatal(err)
	}
	h := newHarvester(t, fs, &clock)
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}

	// The factory rewrites the log when the run completes.
	clock = 90000
	if err := logs.Write(fs, record("forecast-a", 1, "v1")); err != nil {
		t.Fatal(err)
	}
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 0 || st.Updated != 1 {
		t.Fatalf("rewrite pass = %+v", st)
	}
	tbl := h.db.Table(statsdb.RunsTableName)
	if tbl.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (update in place)", tbl.Len())
	}
	if got := tbl.Row(0)[tbl.Schema().Index("status")].Str(); got != logs.StatusCompleted {
		t.Fatalf("status = %q", got)
	}
}

func TestPassRefreshesTouchedButIdenticalLog(t *testing.T) {
	clock := 10.0
	fs := vfs.New(func() float64 { return clock })
	r := record("forecast-a", 1, "v1")
	if err := logs.Write(fs, r); err != nil {
		t.Fatal(err)
	}
	h := newHarvester(t, fs, &clock)
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}

	// Re-write identical content with a newer mtime (a re-copied file).
	clock = 20
	if err := logs.Write(fs, r); err != nil {
		t.Fatal(err)
	}
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.BodiesRead != 1 || st.Refreshed != 1 || st.Ingested != 0 || st.Updated != 0 {
		t.Fatalf("refresh pass = %+v", st)
	}
	// The refreshed watermark silences the file on the next pass.
	st, err = h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.WatermarkHits != 1 || st.BodiesRead != 0 {
		t.Fatalf("post-refresh pass = %+v", st)
	}
}

func TestQuarantineHoldsCorruptLogsWithoutAborting(t *testing.T) {
	clock := 10.0
	fs := tree(t, &clock, []string{"forecast-a"}, 2)
	bad := logs.LogPath(logs.RunDir("forecast-a", 2005, 99))
	if err := fs.WriteString(bad, "forecast: forecast-a\nday: zebra\n"); err != nil {
		t.Fatal(err)
	}
	h := newHarvester(t, fs, &clock)
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 2 || st.Quarantined != 1 {
		t.Fatalf("pass = %+v", st)
	}
	q := h.Quarantine()
	if len(q) != 1 || q[0].Path != bad || !strings.Contains(q[0].Error, "zebra") {
		t.Fatalf("quarantine = %+v", q)
	}

	// Unchanged corrupt file is not re-read, let alone re-reported.
	counting := &countingFS{FS: fs}
	h2, err := New(counting, h.db, h.journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	st, err = h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 || counting.reads != 0 {
		t.Fatalf("quarantined file re-read: %+v, reads %d", st, counting.reads)
	}

	// Fixing the file releases it from quarantine and ingests it.
	clock = 20
	if err := logs.Write(fs, record("forecast-a", 99, "v9")); err != nil {
		t.Fatal(err)
	}
	st, err = h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.Quarantined != 0 {
		t.Fatalf("fix pass = %+v", st)
	}
	if len(h2.Quarantine()) != 0 {
		t.Fatalf("quarantine not cleared: %+v", h2.Quarantine())
	}
}

// TestUnreadableLogIsQuarantinedUntilItChanges pins what a failed body
// read does: the file is quarantined under a watermark, so later passes
// do not read it again until its mtime or size moves.
func TestUnreadableLogIsQuarantinedUntilItChanges(t *testing.T) {
	clock := 10.0
	base := vfs.New(func() float64 { return clock })
	path := logs.LogPath(logs.RunDir("forecast-a", 2005, 1))
	if err := base.Append(path, 512); err != nil { // a size-only run.log
		t.Fatal(err)
	}
	fs := &countingFS{FS: base}
	h := newHarvester(t, fs, &clock)
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.BodiesRead != 0 || fs.reads != 1 {
		t.Fatalf("first pass = %+v, reads %d; want the read to fail into quarantine", st, fs.reads)
	}
	if q := h.Quarantine(); len(q) != 1 || q[0].Path != path || !strings.Contains(q[0].Error, "size-only") {
		t.Fatalf("quarantine = %+v", q)
	}

	fs.reads = 0
	clock = 20
	if st, err = h.Pass(); err != nil {
		t.Fatal(err)
	}
	if st.WatermarkHits != 1 || st.Quarantined != 0 || fs.reads != 0 {
		t.Fatalf("second pass = %+v, reads %d; want a watermark hit and no read", st, fs.reads)
	}

	if err := logs.Write(base, record("forecast-a", 1, "v1")); err != nil {
		t.Fatal(err)
	}
	if st, err = h.Pass(); err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.Quarantined != 0 || len(h.Quarantine()) != 0 {
		t.Fatalf("pass after the rewrite = %+v, quarantine %+v", st, h.Quarantine())
	}
}

// noGenFS is an FS that keeps no change count, as an OS tree does: it
// offers every file whatever the cursor, each with Gen and Born 0, so
// every pass counts every log and looks up each one's watermark.
type noGenFS struct{ *vfs.FS }

func (f noGenFS) WalkSince(root string, _ uint64, fn func(vfs.FileInfo) error) error {
	return f.FS.WalkSince(root, 0, func(info vfs.FileInfo) error {
		info.Gen, info.Born = 0, 0
		return fn(info)
	})
}

// TestGenFastPathMatchesLookup harvests one tree with two harvesters:
// one over the vfs write feed, which offers a pass only the files written
// since its cursor, and one through noGenFS, which keeps no change count
// and so offers every file and gets every log's watermark looked up, as
// an OS tree does. Random steps run passes between new logs, identical
// and changed rewrites (some with an older mtime), corrupt logs fixed
// later, size-only run.logs, other files beside the logs, a crash in the
// middle of a pass, and restarts. Every pass, a failed one too, must give
// both the same stats, Status, runs table and harvest_* counters and
// gauges, and the quarantine count and newest mtime each keeps must match
// a recount. The seeds must reach a failed pass with a non-zero cursor,
// whose counts the feed arm takes from a walk.
func TestGenFastPathMatchesLookup(t *testing.T) {
	forecasts := []string{"forecast-a", "forecast-b", "forecast-c"}
	failedWithCursor := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := 10.0
		fs := vfs.New(func() float64 { return clock })
		type arm struct {
			fs      FS
			db      *statsdb.DB
			journal JournalStore
			tel     *telemetry.Telemetry
			h       *Harvester
		}
		arms := []*arm{{fs: fs}, {fs: noGenFS{fs}}}
		start := func(a *arm) {
			h, err := New(a.fs, a.db, a.journal, Options{Telemetry: a.tel, Clock: func() float64 { return clock }})
			if err != nil {
				t.Fatal(err)
			}
			a.h = h
		}
		for _, a := range arms {
			a.db, a.journal, a.tel = statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), telemetry.New()
			start(a)
		}
		for step := 0; step < 40; step++ {
			f, d := forecasts[rng.Intn(len(forecasts))], 1+rng.Intn(5)
			dir := logs.RunDir(f, 2005, d)
			path := logs.LogPath(dir)
			var err error
			switch rng.Intn(7) {
			case 0, 1: // a new log, or an identical (v1 again) or changed rewrite
				err = logs.Write(fs, record(f, d, []string{"v1", "v2"}[rng.Intn(2)]))
			case 2:
				err = fs.WriteString(path, "forecast: "+f+"\nday: zebra\n")
			case 3: // a size-only run.log; a text one refuses the append
				if fs.Open(path) == nil {
					err = fs.Append(path, int64(1+rng.Intn(100)))
				}
			case 4:
				err = fs.Append(dir+"/out.63", int64(1+rng.Intn(100)))
			case 5: // 0 keeps mtimes equal; -10 writes an older one, as a copy that keeps mtimes can
				clock += float64(10 * (rng.Intn(4) - 1))
			case 6:
				for _, a := range arms {
					start(a)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) > 0 {
				continue
			}
			crashAt := 0
			if rng.Intn(4) == 0 {
				crashAt = 1 + rng.Intn(3)
			}
			cursor := arms[0].h.seen
			var stats [2]PassStats
			var errs [2]error
			for i, a := range arms {
				n := 0
				a.h.onIngest = func(string) error {
					if n++; n == crashAt {
						return errors.New("crash")
					}
					return nil
				}
				stats[i], errs[i] = a.h.Pass()
				stats[i].WallSeconds = 0
				a.h.onIngest = nil
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if stats[0] != stats[1] || (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("%s: pass = %+v, %v with the counter; %+v, %v without", where, stats[0], errs[0], stats[1], errs[1])
			}
			if errs[0] != nil && cursor != 0 {
				failedWithCursor++
			}
			m0, m1 := harvestMetrics(arms[0].tel), harvestMetrics(arms[1].tel)
			if _, ok := m0[MetricFilesScannedTotal]; !ok || !maps.Equal(m0, m1) {
				t.Fatalf("%s: metrics = %v with the counter, %v without", where, m0, m1)
			}
			var status [2]Status
			for i, a := range arms {
				status[i] = a.h.Status()
				status[i].LastPass.WallSeconds = 0
				quarantined, newest := a.h.quarantined, a.h.newest
				a.h.countMarksLocked()
				if quarantined != a.h.quarantined || newest != a.h.newest {
					t.Fatalf("%s: kept quarantined %d, newest %v; a recount gives %d, %v",
						where, quarantined, newest, a.h.quarantined, a.h.newest)
				}
			}
			if !reflect.DeepEqual(status[0], status[1]) {
				t.Fatalf("%s: Status = %+v with the counter, %+v without", where, status[0], status[1])
			}
			t0, t1 := arms[0].db.Table(statsdb.RunsTableName), arms[1].db.Table(statsdb.RunsTableName)
			if t0.Len() != t1.Len() {
				t.Fatalf("%s: runs tables hold %d and %d rows", where, t0.Len(), t1.Len())
			}
			for r := 0; r < t0.Len(); r++ {
				if !slices.Equal(t0.Row(r), t1.Row(r)) {
					t.Fatalf("%s: runs row %d = %v with the counter, %v without", where, r, t0.Row(r), t1.Row(r))
				}
			}
		}
	}
	if failedWithCursor == 0 {
		t.Fatal("no seed failed a pass with a non-zero cursor: the failed-pass counts went unchecked")
	}
}

// harvestMetrics returns the value of every harvest_* counter and gauge.
func harvestMetrics(tel *telemetry.Telemetry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range tel.Registry().Snapshot() {
		if strings.HasPrefix(f.Name, "harvest_") && f.Kind != telemetry.KindHistogram {
			for _, s := range f.Series {
				out[f.Name] = s.Value
			}
		}
	}
	return out
}

func TestCrashMidPassResumesWithoutDuplicatesOrLoss(t *testing.T) {
	clock := 10.0
	fs := tree(t, &clock, []string{"forecast-a", "forecast-b"}, 3)
	db := statsdb.NewDB()
	journalFS := vfs.New(nil)
	journal := NewVFSJournal(journalFS, "/harvest/journal.jsonl")

	h, err := New(fs, db, journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	// Crash after the third file's database upsert but BEFORE its journal
	// line — the torn window the journal's write ordering protects.
	crash := errors.New("simulated crash")
	ingested := 0
	h.onIngest = func(path string) error {
		ingested++
		if ingested == 3 {
			return crash
		}
		return nil
	}
	if _, err := h.Pass(); !errors.Is(err, crash) {
		t.Fatalf("Pass error = %v, want simulated crash", err)
	}
	// Three rows made it into the database, but only two are journaled.
	if n := db.Table(statsdb.RunsTableName).Len(); n != 3 {
		t.Fatalf("rows after crash = %d", n)
	}

	// Restart: same journal, same database. The unjournaled file is
	// re-read and its upsert lands on the existing row.
	h2, err := New(fs, db, journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	// 2 journaled files skip; 4 files re-read: 1 updated (the torn one,
	// already in the db), 3 inserted.
	if st.WatermarkHits != 2 || st.BodiesRead != 4 || st.Ingested != 3 || st.Updated != 1 {
		t.Fatalf("resume pass = %+v", st)
	}
	if n := db.Table(statsdb.RunsTableName).Len(); n != 6 {
		t.Fatalf("rows after resume = %d, want 6 (no duplicates, none missing)", n)
	}

	// Each file's watermark was journaled exactly once across the crash.
	text, err := journal.Load()
	if err != nil {
		t.Fatal(err)
	}
	perPath := make(map[string]int)
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `"type":"watermark"`) {
			start := strings.Index(line, `"path":"`) + len(`"path":"`)
			end := strings.Index(line[start:], `"`)
			perPath[line[start:start+end]]++
		}
	}
	for path, n := range perPath {
		if n != 1 {
			t.Fatalf("watermark for %s journaled %d times, want exactly 1", path, n)
		}
	}
	if len(perPath) != 6 {
		t.Fatalf("journaled %d paths, want 6", len(perPath))
	}
}

func TestCrashAfterJournalAppendIsIdempotent(t *testing.T) {
	clock := 10.0
	fs := tree(t, &clock, []string{"forecast-a"}, 2)
	db := statsdb.NewDB()
	journal := NewVFSJournal(vfs.New(nil), "/j")
	h, err := New(fs, db, journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	// Crash after the last file is fully committed (upsert + journal) but
	// before the pass record lands.
	crash := errors.New("crash")
	count := 0
	h.onIngest = func(string) error {
		count++
		return nil
	}
	origJournal := h.journal
	h.journal = &failNthAppend{JournalStore: origJournal, failAt: 3, err: crash} // 2 watermarks ok, pass entry fails
	if _, err := h.Pass(); !errors.Is(err, crash) {
		// The pass entry append happens after both ingests succeed.
		t.Fatalf("Pass error = %v", err)
	}

	h2, err := New(fs, db, origJournal.(*VFSJournal), Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	st, err := h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.WatermarkHits != 2 || st.Ingested != 0 || st.Updated != 0 {
		t.Fatalf("resume pass = %+v", st)
	}
	if st.Pass != 1 {
		t.Fatalf("pass counter = %d, want 1 (crashed pass never recorded)", st.Pass)
	}
	if n := db.Table(statsdb.RunsTableName).Len(); n != 2 {
		t.Fatalf("rows = %d", n)
	}
}

// failNthAppend fails the nth Append call, simulating a crash at a chosen
// journal write.
type failNthAppend struct {
	JournalStore
	calls  int
	failAt int
	err    error
}

func (f *failNthAppend) Append(line string) error {
	f.calls++
	if f.calls == f.failAt {
		return f.err
	}
	return f.JournalStore.Append(line)
}

func TestJournalToleratesTornTrailingLine(t *testing.T) {
	clock := 10.0
	fs := tree(t, &clock, []string{"forecast-a"}, 2)
	journalFS := vfs.New(nil)
	journal := NewVFSJournal(journalFS, "/j")
	h, err := New(fs, statsdb.NewDB(), journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a torn half-line at the tail.
	if err := journalFS.AppendString("/j", `{"type":"watermark","watermark":{"pa`); err != nil {
		t.Fatal(err)
	}
	h2, err := New(fs, h.db, journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if h2.torn != 1 {
		t.Fatalf("torn = %d, want 1", h2.torn)
	}
	st, err := h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.WatermarkHits != 2 || st.Ingested != 0 {
		t.Fatalf("pass after torn line = %+v", st)
	}
	if h2.Status().TornLines != 1 {
		t.Fatalf("Status().TornLines = %d", h2.Status().TornLines)
	}
}

func TestHarvestAdoptsDatabaseBuiltByLoadRuns(t *testing.T) {
	// A database populated by the one-shot loader is harvested into as it
	// is: the harvested copy of the same run updates the loader's row.
	db := statsdb.NewDB()
	if _, err := statsdb.LoadRuns(db, []*logs.RunRecord{record("forecast-a", 1, "v1")}); err != nil {
		t.Fatal(err)
	}
	clock := 5.0
	fs := tree(t, &clock, []string{"forecast-a"}, 1)
	h, err := New(fs, db, NewVFSJournal(vfs.New(nil), "/j"), Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.Table(statsdb.RunsTableName)
	st, err := h.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Updated != 1 || st.Ingested != 0 || tbl.Len() != 1 {
		t.Fatalf("pass = %+v, rows = %d", st, tbl.Len())
	}
}

// TestForeignRunsLayoutIsRefused checks that LoadSnapshot and New refuse a
// runs table laid out other than statsdb.EnsureRunsTable lays it out,
// one column short or one over, instead of harvesting zero-filled rows
// into it.
func TestForeignRunsLayoutIsRefused(t *testing.T) {
	runs, err := statsdb.EnsureRunsTable(statsdb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	layout := runs.Schema()
	snap := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := SaveSnapshot(snap, []*logs.RunRecord{record("forecast-a", 1, "v1")}); err != nil {
		t.Fatal(err)
	}
	clock := 5.0
	fs := tree(t, &clock, []string{"forecast-a"}, 1)
	for name, schema := range map[string]statsdb.Schema{
		"a column missing": layout[1:],
		"one extra":        append(layout, statsdb.Column{Name: "operator_note", Type: statsdb.Int}),
	} {
		db := statsdb.NewDB()
		tbl, err := db.CreateTable(statsdb.RunsTableName, schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(db, snap); err == nil {
			t.Errorf("%s: LoadSnapshot accepted the table", name)
		}
		if _, err := New(fs, db, NewVFSJournal(vfs.New(nil), "/j"), Options{}); err == nil {
			t.Errorf("%s: New accepted the table", name)
		}
		if tbl.Len() != 0 {
			t.Errorf("%s: %d rows written into the refused table", name, tbl.Len())
		}
	}
}

func TestHarvestMetricsAndStatus(t *testing.T) {
	clock := 10.0
	fs := tree(t, &clock, []string{"forecast-a"}, 2)
	tel := telemetry.New()
	tel.SetClock(func() float64 { return clock })
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"),
		Options{Telemetry: tel, Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	clock = 86500 // one day later than the newest log mtime (10)
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}
	reg := tel.Registry()
	if got := reg.Counter(MetricIngestedTotal, nil).Value(); got != 2 {
		t.Fatalf("%s = %v", MetricIngestedTotal, got)
	}
	if got := reg.Counter(MetricPassesTotal, nil).Value(); got != 1 {
		t.Fatalf("%s = %v", MetricPassesTotal, got)
	}
	if got := reg.Gauge(MetricLastPassTime, nil).Value(); got != 86500 {
		t.Fatalf("%s = %v", MetricLastPassTime, got)
	}
	if got := reg.Gauge(MetricWatermarkLag, nil).Value(); got != 86490 {
		t.Fatalf("%s = %v", MetricWatermarkLag, got)
	}
	st := h.Status()
	if st.Passes != 1 || st.Watermarks != 2 || st.Totals.Ingested != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.WatermarkLag != 86490 {
		t.Fatalf("status lag = %v", st.WatermarkLag)
	}
}

func TestScheduleRunsPassesOnEngine(t *testing.T) {
	eng := sim.NewEngine()
	clock := func() float64 { return eng.Now() }
	fs := vfs.New(clock)
	h, err := New(fs, statsdb.NewDB(), NewVFSJournal(vfs.New(nil), "/j"), Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Logs appear over sim time; the scheduled harvester picks each up.
	for d := 1; d <= 3; d++ {
		day := d
		eng.Scope("test").At(float64(day)*3600-100, func() {
			if err := logs.Write(fs, record("forecast-a", day, "v1")); err != nil {
				t.Fatal(err)
			}
		})
	}
	Schedule(eng, h, 3600, 4*3600, nil)
	eng.RunUntil(5 * 3600)
	if h.Status().Passes != 4 {
		t.Fatalf("passes = %d, want 4", h.Status().Passes)
	}
	if n := h.db.Table(statsdb.RunsTableName).Len(); n != 3 {
		t.Fatalf("rows = %d", n)
	}
	records, err := h.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[0].Day != 1 || records[2].Day != 3 {
		t.Fatalf("records = %v", records)
	}
}

func TestQueryProvenanceAnswersCodeVersionQuestion(t *testing.T) {
	clock := 10.0
	fs := vfs.New(func() float64 { return clock })
	for d := 1; d <= 3; d++ {
		if err := logs.Write(fs, record("forecast-a", d, "elcirc-5.01")); err != nil {
			t.Fatal(err)
		}
	}
	if err := logs.Write(fs, record("forecast-b", 2, "elcirc-5.01")); err != nil {
		t.Fatal(err)
	}
	if err := logs.Write(fs, record("forecast-c", 1, "elcirc-5.02")); err != nil {
		t.Fatal(err)
	}
	h := newHarvester(t, fs, &clock)
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}

	p, err := QueryProvenance(h.db, "elcirc-5.01")
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRuns != 4 || len(p.Forecasts) != 2 {
		t.Fatalf("provenance = %+v", p)
	}
	if p.Forecasts[0].Forecast != "forecast-a" || p.Forecasts[0].Runs != 3 ||
		p.Forecasts[0].FirstDay != 1 || p.Forecasts[0].LastDay != 3 {
		t.Fatalf("forecast-a provenance = %+v", p.Forecasts[0])
	}
	if len(p.Forecasts[0].Sources) == 0 ||
		!strings.Contains(p.Forecasts[0].Sources[0], "/runs/forecast-a/") {
		t.Fatalf("sources = %v", p.Forecasts[0].Sources)
	}
	report := p.String()
	for _, want := range []string{"elcirc-5.01", "forecast-a", "forecast-b", "4 run(s)"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report lacks %q:\n%s", want, report)
		}
	}

	// Unknown version lists what exists instead.
	miss, err := QueryProvenance(h.db, "elcirc-9.99")
	if err != nil {
		t.Fatal(err)
	}
	if miss.TotalRuns != 0 || fmt.Sprint(miss.Available) != "[elcirc-5.01 elcirc-5.02]" {
		t.Fatalf("miss = %+v", miss)
	}
}

func TestOSJournalPersistsAcrossInstances(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	j := NewOSJournal(path)
	if err := appendEntry(j, journalEntry{Type: entryWatermark, Watermark: &Watermark{Path: "/runs/x", MTime: 5, Size: 9, Hash: "h"}}); err != nil {
		t.Fatal(err)
	}
	marks, _, _, torn, err := loadJournal(NewOSJournal(path))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(marks) != 1 || marks["/runs/x"].MTime != 5 {
		t.Fatalf("reload = %+v torn=%d", marks, torn)
	}
}

func TestJournalOutlivingDatabaseSelfHeals(t *testing.T) {
	clock := 100.0
	fs := tree(t, &clock, []string{"forecast-a"}, 3)
	journal := NewVFSJournal(vfs.New(nil), "/j")
	h1, err := New(fs, statsdb.NewDB(), journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := h1.Pass(); err != nil || st.Ingested != 3 {
		t.Fatalf("cold pass = %+v, %v", st, err)
	}

	// "Restart" against a fresh (empty) database while the journal
	// survives: a watermark without its row would silently skip data, so
	// the orphaned marks are dropped and the files re-read.
	h2, err := New(fs, statsdb.NewDB(), journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Status().Recovered; got != 3 {
		t.Fatalf("Recovered = %d, want 3", got)
	}
	st, err := h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 3 || st.WatermarkHits != 0 {
		t.Fatalf("recovery pass = %+v", st)
	}
	recs, err := h2.Records()
	if err != nil || len(recs) != 3 {
		t.Fatalf("records = %d, %v", len(recs), err)
	}
}

func TestSnapshotWarmsFreshDatabase(t *testing.T) {
	clock := 100.0
	base := tree(t, &clock, []string{"forecast-a", "forecast-b"}, 2)
	journal := NewVFSJournal(vfs.New(nil), "/j")
	h1, err := New(base, statsdb.NewDB(), journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Pass(); err != nil {
		t.Fatal(err)
	}
	recs, err := h1.Records()
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := SaveSnapshot(snap, recs); err != nil {
		t.Fatal(err)
	}

	// A fresh process: the snapshot restores the rows the journal's
	// watermarks vouch for, so the pass is warm — no marks dropped, no
	// bodies read.
	db := statsdb.NewDB()
	if n, err := LoadSnapshot(db, snap); err != nil || n != 4 {
		t.Fatalf("LoadSnapshot = %d, %v", n, err)
	}
	cfs := &countingFS{FS: base}
	h2, err := New(cfs, db, journal, Options{Clock: func() float64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if got := h2.Status().Recovered; got != 0 {
		t.Fatalf("Recovered = %d, want 0", got)
	}
	st, err := h2.Pass()
	if err != nil {
		t.Fatal(err)
	}
	if st.WatermarkHits != 4 || st.BodiesRead != 0 || st.Ingested != 0 || cfs.reads != 0 {
		t.Fatalf("warm pass = %+v (reads %d)", st, cfs.reads)
	}
	recs2, err := h2.Records()
	if err != nil || len(recs2) != 4 {
		t.Fatalf("records = %d, %v", len(recs2), err)
	}
	if recs2[0].SourcePath == "" {
		t.Fatalf("snapshot lost source path: %+v", recs2[0])
	}
}

// TestSnapshotLineWithoutHarvestedAtLoads checks that a snapshot line
// written before records carried HarvestedAt still loads, as 0.
func TestSnapshotLineWithoutHarvestedAtLoads(t *testing.T) {
	clock := 100.0
	_, recs, _, snapshot := coldHarvest(t, &clock)
	first, _, _ := strings.Cut(string(snapshot), "\n")
	old := strings.Replace(first, `"HarvestedAt":100,`, "", 1)
	if old == first {
		t.Fatalf("snapshot line %s holds no HarvestedAt of 100", first)
	}
	got, err := readSnapshot(strings.NewReader(old))
	want := *recs[0]
	want.HarvestedAt = 0
	if err != nil || len(got) != 1 || *got[0] != want {
		t.Fatalf("readSnapshot(%s) = %+v, %v; want %+v", old, got, err, want)
	}
}

func TestLoadSnapshotMissingFileIsColdStart(t *testing.T) {
	n, err := LoadSnapshot(statsdb.NewDB(), filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || n != 0 {
		t.Fatalf("LoadSnapshot = %d, %v", n, err)
	}
}

// coldHarvest harvests a small tree into a fresh database and journal,
// and returns the tree with its records and the journal text and
// snapshot bytes the harvest left behind.
func coldHarvest(t testing.TB, clock *float64) (fs *vfs.FS, recs []*logs.RunRecord, journal string, snapshot []byte) {
	t.Helper()
	fs = tree(t, clock, []string{"forecast-a", "forecast-b"}, 2)
	j := NewVFSJournal(vfs.New(nil), "/j")
	h, err := New(fs, statsdb.NewDB(), j, Options{Clock: func() float64 { return *clock }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pass(); err != nil {
		t.Fatal(err)
	}
	if recs, err = h.Records(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := SaveSnapshot(snap, recs); err != nil {
		t.Fatal(err)
	}
	if snapshot, err = os.ReadFile(snap); err != nil {
		t.Fatal(err)
	}
	if journal, err = j.Load(); err != nil {
		t.Fatal(err)
	}
	return fs, recs, journal, snapshot
}

func TestLoadSnapshotSkipsOverlongLine(t *testing.T) {
	clock := 100.0
	_, recs, _, snapshot := coldHarvest(t, &clock)
	first, rest, _ := strings.Cut(string(snapshot), "\n")
	second, _, _ := strings.Cut(rest, "\n")
	garbage := strings.Repeat("x", 2<<20)
	snap := filepath.Join(t.TempDir(), "snapshot.jsonl")
	if err := os.WriteFile(snap, []byte(first+"\n"+garbage+"\n"+second+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := statsdb.NewDB()
	if n, err := LoadSnapshot(db, snap); err != nil || n != 2 {
		t.Fatalf("LoadSnapshot = %d, %v; want both good records", n, err)
	}
	got, err := statsdb.ReadRuns(db)
	if err != nil || len(got) != 2 || got[0].Forecast != recs[0].Forecast || got[1].Day != recs[1].Day {
		t.Fatalf("loaded %+v, %v; want the first two records", got, err)
	}
}

// TestCrashAtEveryOffsetRecovers cuts the journal, and separately the
// snapshot, at every byte offset — where a crash mid-write can leave
// either — and checks that a restart (LoadSnapshot, New, one Pass) ends
// with exactly the cold harvest's records: never a panic, never a row
// lost or duplicated.
func TestCrashAtEveryOffsetRecovers(t *testing.T) {
	clock := 100.0
	fs, want, journal, snapshot := coldHarvest(t, &clock)
	snap := filepath.Join(t.TempDir(), "snapshot.jsonl")
	restart := func(journal string, snapshot []byte) ([]*logs.RunRecord, error) {
		if err := os.WriteFile(snap, snapshot, 0o644); err != nil {
			return nil, err
		}
		db := statsdb.NewDB()
		if _, err := LoadSnapshot(db, snap); err != nil {
			return nil, err
		}
		j := NewVFSJournal(vfs.New(nil), "/j")
		if err := j.Append(journal); err != nil {
			return nil, err
		}
		h, err := New(fs, db, j, Options{Clock: func() float64 { return clock }})
		if err != nil {
			return nil, err
		}
		if _, err := h.Pass(); err != nil {
			return nil, err
		}
		return h.Records()
	}
	check := func(what string, cut int, got []*logs.RunRecord, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s cut at %d: %v", what, cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s cut at %d: records differ from the cold harvest:\n%+v\nwant\n%+v", what, cut, got, want)
		}
	}
	for cut := 0; cut <= len(journal); cut++ {
		got, err := restart(journal[:cut], snapshot)
		check("journal", cut, got, err)
	}
	for cut := 0; cut <= len(snapshot); cut++ {
		got, err := restart(journal, snapshot[:cut])
		check("snapshot", cut, got, err)
	}
}
