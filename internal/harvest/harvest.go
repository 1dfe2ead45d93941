// Package harvest is the factory's continuous log-ingestion pipeline: an
// incremental, fault-tolerant harvester that crawls run directories,
// parses run logs, and upserts them into the statistics database.
//
// The paper's §4.3.2 crawler is a nightly one-shot: walk every run
// directory, parse every log, reload the database. That neither scales
// (every pass re-reads the whole year) nor survives corruption (one bad
// log aborts the load). This harvester instead keeps a per-file watermark
// (mtime + size + content hash) persisted in a crash-safe JSONL journal:
// unchanged files are skipped without reading their bodies, corrupt files
// are quarantined with their ParseError rather than aborting the pass,
// and a crash mid-pass resumes idempotently because ingestion is an
// upsert keyed on (forecast, day, start) and the journal line for a file
// is appended only after its database write. On a vfs tree a pass asks
// only for the files written since the last complete pass
// (vfs.FS.WalkSince), so a daily pass costs the day's logs, not the
// tree's.
//
// Each ingested row carries provenance columns (harvested_at,
// source_path) that power the paper's "find all forecasts that use code
// version X" query as a first-class report (QueryProvenance).
//
// The harvester is itself observable: telemetry counters, gauges, and
// histograms under harvest_*, one trace span per pass, and a Status
// snapshot served by the control room's /api/harvest endpoint.
package harvest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/logs"
	"repro/internal/sim"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Harvest metric names, exported so alert rules (monitor.StalenessRule,
// monitor.RateRule) can reference them without importing this package's
// internals.
const (
	MetricPassesTotal       = "harvest_passes_total"
	MetricFilesScannedTotal = "harvest_files_scanned_total"
	MetricBodiesReadTotal   = "harvest_log_reads_total"
	MetricIngestedTotal     = "harvest_records_ingested_total"
	MetricUpdatedTotal      = "harvest_records_updated_total"
	MetricQuarantinedTotal  = "harvest_quarantined_total"
	MetricWatermarkHits     = "harvest_watermark_hits_total"
	MetricLastPassTime      = "harvest_last_pass_timestamp"
	MetricWatermarkLag      = "harvest_watermark_lag_seconds"
	MetricWatermarks        = "harvest_watermarks"
	MetricQuarantineSize    = "harvest_quarantine_size"
	MetricPassWallSeconds   = "harvest_pass_wall_seconds"
)

// FS is the slice of vfs.FS the harvester needs. Tests substitute a
// counting wrapper to prove the watermark fast path reads no log bodies.
// WalkSince offers the regular files at or under root written after the
// change count since, in vfs.FS.Walk's order; since 0 offers them all.
// An FS that keeps no change count (an OS tree) offers every file, with
// vfs.FileInfo.Gen and Born at 0, so each pass looks up every log's
// watermark.
type FS interface {
	WalkSince(root string, since uint64, fn func(info vfs.FileInfo) error) error
	ReadFile(path string) (string, error)
	Exists(path string) bool
}

// Options configure a Harvester. The zero value harvests /runs with no
// telemetry.
type Options struct {
	// Telemetry receives the harvester's metrics and pass spans (nil
	// disables collection).
	Telemetry *telemetry.Telemetry
	// Clock supplies sim time for watermarks, harvested_at, and the
	// staleness gauge (nil pins it at 0). Campaigns pass Engine.Now.
	Clock func() float64
}

// runsRoot is the run-tree root to crawl: where logs.RunDir puts every
// run directory.
const runsRoot = "/runs"

// PassStats summarizes one harvest pass.
type PassStats struct {
	Pass int     `json:"pass"`
	At   float64 `json:"at"` // sim time the pass ran
	// WallSeconds is the real-time latency of the pass. Passes execute at
	// a single sim instant, so their cost is wall-clock, not sim-clock.
	WallSeconds   float64 `json:"wall_seconds"`
	Scanned       int     `json:"scanned"`
	WatermarkHits int     `json:"watermark_hits"`
	BodiesRead    int     `json:"bodies_read"`
	Refreshed     int     `json:"refreshed"` // mtime changed, content did not
	Ingested      int     `json:"ingested"`
	Updated       int     `json:"updated"`
	Quarantined   int     `json:"quarantined"`
}

// QuarantineEntry is one corrupt log held out of the database.
type QuarantineEntry struct {
	Path  string  `json:"path"`
	Error string  `json:"error"`
	At    float64 `json:"at"`
}

// Status is the harvester's observable state, served as /api/harvest.
type Status struct {
	Root         string    `json:"root"`
	Passes       int       `json:"passes"`
	LastPass     PassStats `json:"last_pass"`
	Watermarks   int       `json:"watermarks"`
	WatermarkLag float64   `json:"watermark_lag_seconds"`
	TornLines    int       `json:"torn_journal_lines,omitempty"`
	// Recovered counts journal watermarks dropped at startup because
	// their rows were missing from the database (the files re-read on the
	// next pass).
	Recovered  int               `json:"recovered_watermarks,omitempty"`
	Totals     Totals            `json:"totals"`
	Quarantine []QuarantineEntry `json:"quarantine,omitempty"`
}

// Totals accumulate across every pass since the journal began.
type Totals struct {
	Scanned       int `json:"scanned"`
	WatermarkHits int `json:"watermark_hits"`
	BodiesRead    int `json:"bodies_read"`
	Ingested      int `json:"ingested"`
	Updated       int `json:"updated"`
	Quarantined   int `json:"quarantined"`
}

// Harvester incrementally ingests a run tree into a statistics database.
// Create with New; Pass is safe to call from the engine goroutine while
// Status is read from HTTP handlers.
type Harvester struct {
	mu      sync.Mutex
	fs      FS
	db      *statsdb.DB
	journal JournalStore
	opts    Options

	marks map[string]*Watermark
	// quarantined and newest track the marks held out of the database and
	// the newest mark mtime (at least 0), for the gauges and Status.
	quarantined int
	newest      float64
	// seen is the pass cursor: the highest vfs.FileInfo.Gen among the
	// files the complete passes since New were offered, 0 before one
	// completes. counted is the number of logs the last complete pass
	// counted (its Scanned).
	seen      uint64
	counted   int
	passes    int
	lastPass  PassStats
	totals    Totals
	torn      int
	recovered int

	// onIngest, when set (tests only), runs after a record's database
	// upsert and before its journal append — the crash window the
	// journal's ordering contract protects. A non-nil error aborts the
	// pass as a crash would.
	onIngest func(path string) error

	mPasses      *telemetry.Counter
	mScanned     *telemetry.Counter
	mBodies      *telemetry.Counter
	mIngested    *telemetry.Counter
	mUpdated     *telemetry.Counter
	mQuarantined *telemetry.Counter
	mHits        *telemetry.Counter
	mLastPass    *telemetry.Gauge
	mLag         *telemetry.Gauge
	mMarks       *telemetry.Gauge
	mQuarSize    *telemetry.Gauge
	mPassWall    *telemetry.Histogram
}

// New builds a Harvester over fs, ingesting into db through journal.
// It creates db's runs table (statsdb.EnsureRunsTable, which refuses one
// of another layout) and replays the journal so a restarted harvester
// resumes from its watermarks instead of re-scanning.
func New(fs FS, db *statsdb.DB, journal JournalStore, opts Options) (*Harvester, error) {
	if fs == nil || db == nil || journal == nil {
		return nil, fmt.Errorf("harvest: fs, db, and journal are all required")
	}
	if opts.Clock == nil {
		opts.Clock = func() float64 { return 0 }
	}
	runs, err := statsdb.EnsureRunsTable(db)
	if err != nil {
		return nil, err
	}
	marks, lastPass, passes, torn, err := loadJournal(journal)
	if err != nil {
		return nil, fmt.Errorf("harvest: load journal: %w", err)
	}
	recovered := pruneStaleMarks(runs, marks)
	h := &Harvester{
		fs:        fs,
		db:        db,
		journal:   journal,
		opts:      opts,
		marks:     marks,
		passes:    passes,
		lastPass:  lastPass,
		torn:      torn,
		recovered: recovered,
	}
	reg := opts.Telemetry.Registry()
	reg.Describe(MetricPassesTotal, "Harvest passes completed.")
	reg.Describe(MetricFilesScannedTotal, "Run logs considered across all passes.")
	reg.Describe(MetricBodiesReadTotal, "Run log bodies actually read (watermark misses).")
	reg.Describe(MetricIngestedTotal, "Run records newly inserted into statsdb.")
	reg.Describe(MetricUpdatedTotal, "Run records updated in place (content changed).")
	reg.Describe(MetricQuarantinedTotal, "Corrupt run logs quarantined instead of ingested.")
	reg.Describe(MetricWatermarkHits, "Run logs skipped unchanged (mtime+size watermark hit).")
	reg.Describe(MetricLastPassTime, "Sim time the last harvest pass completed — staleness rules watch this.")
	reg.Describe(MetricWatermarkLag, "Sim seconds between now and the newest harvested log mtime.")
	reg.Describe(MetricWatermarks, "Run logs currently covered by a watermark.")
	reg.Describe(MetricQuarantineSize, "Corrupt run logs currently quarantined.")
	reg.Describe(MetricPassWallSeconds, "Wall-clock latency of harvest passes.")
	h.mPasses = reg.Counter(MetricPassesTotal, nil)
	h.mScanned = reg.Counter(MetricFilesScannedTotal, nil)
	h.mBodies = reg.Counter(MetricBodiesReadTotal, nil)
	h.mIngested = reg.Counter(MetricIngestedTotal, nil)
	h.mUpdated = reg.Counter(MetricUpdatedTotal, nil)
	h.mQuarantined = reg.Counter(MetricQuarantinedTotal, nil)
	h.mHits = reg.Counter(MetricWatermarkHits, nil)
	h.mLastPass = reg.Gauge(MetricLastPassTime, nil)
	h.mLag = reg.Gauge(MetricWatermarkLag, nil)
	h.mMarks = reg.Gauge(MetricWatermarks, nil)
	h.mQuarSize = reg.Gauge(MetricQuarantineSize, nil)
	h.mPassWall = reg.Histogram(MetricPassWallSeconds,
		[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}, nil)
	h.countMarksLocked()
	h.refreshGaugesLocked()
	return h, nil
}

// pruneStaleMarks drops every non-quarantined watermark whose row is
// missing from the database. The journal and the database have
// independent lifetimes — an in-memory database restarts empty while its
// journal persists on disk — and a watermark without its row would
// silently skip a file whose data was lost. Dropping the mark forces a
// re-read, which the idempotent upsert absorbs; quarantined marks carry
// no rows by design and are kept.
func pruneStaleMarks(runs *statsdb.Table, marks map[string]*Watermark) int {
	if len(marks) == 0 {
		return 0
	}
	have := map[string]bool{}
	if res, err := statsdb.Select(runs, statsdb.ColSourcePath).Run(); err == nil {
		for _, row := range res.Rows {
			have[row[0].Str()] = true
		}
	}
	dropped := 0
	for path, wm := range marks {
		if wm.Quarantined || have[path] {
			continue
		}
		delete(marks, path)
		dropped++
	}
	return dropped
}

// Pass runs one incremental harvest over the tree: scan every run log,
// skip files whose watermark still matches, parse and upsert the rest,
// quarantine what fails to parse. The error return covers infrastructure
// failures (journal writes, walk errors) only; parse failures never abort
// a pass.
//
// A pass asks the FS only for the files written after its cursor, the
// highest vfs.FileInfo.Gen the complete passes before it were offered. A
// log it is not offered is a watermark hit without the watermark lookup:
// a complete pass left a watermark matching it, and nothing has written
// it since. This relies on nothing writing the tree while a pass reads
// it: a vfs is driven from one goroutine, the one running the pass.
//
// The counts are those of a walk over every log. A pass starts Scanned
// and WatermarkHits at the number of logs the last complete pass counted,
// each a hit unless it is offered again. An offered log born after the
// cursor adds one to Scanned; any other takes one from WatermarkHits.
// Each offered log is then classified by its watermark. A pass that
// fails counts, with one walk, the logs up to the one it failed on, and
// leaves the cursor and that number as they were. New starts both at 0,
// so the first pass after New, like every pass over an FS that keeps no
// change count, is offered every log and counts each.
func (h *Harvester) Pass() (PassStats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()

	now := h.opts.Clock()
	wallStart := time.Now()
	tr := h.opts.Telemetry.Trace()
	span := tr.Begin("harvest", fmt.Sprintf("pass-%03d", h.passes+1), "harvest", 0)
	stats := PassStats{Pass: h.passes + 1, At: now}
	if h.seen != 0 {
		stats.Scanned, stats.WatermarkHits = h.counted, h.counted
	}
	seen := h.seen
	var last string // the last log offered
	missed := 0     // offered logs that were not watermark hits

	err := func() error {
		if !h.fs.Exists(runsRoot) {
			return nil // nothing harvested yet; an empty pass, not an error
		}
		return h.fs.WalkSince(runsRoot, h.seen, func(info vfs.FileInfo) error {
			seen = max(seen, info.Gen)
			if info.Name != logs.LogName {
				return nil
			}
			last = info.Path
			if h.seen == 0 || info.Born > h.seen {
				stats.Scanned++
			} else {
				stats.WatermarkHits--
			}

			wm := h.marks[info.Path]
			if wm != nil && wm.MTime == info.MTime && wm.Size == info.Size {
				// Watermark hit: nothing about the file changed; its body
				// is never read.
				stats.WatermarkHits++
				return nil
			}
			missed++

			body, err := h.fs.ReadFile(info.Path)
			if err != nil {
				// A body that cannot be read (a size-only or vanished
				// file, a transient failure) is quarantined like a
				// corrupt one: its watermark holds it out until its mtime
				// or size changes.
				return h.quarantineLocked(&stats, wm, info, "", now, err)
			}
			stats.BodiesRead++
			h.mBodies.Inc()
			hash := fnvHash(body)
			if wm != nil && wm.Hash == hash && !wm.Quarantined {
				// Touched but unchanged (a re-copied file, a rewritten
				// identical log): refresh the watermark, skip the ingest.
				stats.Refreshed++
				return h.markLocked(wm, &Watermark{
					Path: info.Path, MTime: info.MTime, Size: info.Size, Hash: hash, At: wm.At,
				})
			}

			rec, err := logs.ParseFrom(body, info.Path)
			if err != nil {
				return h.quarantineLocked(&stats, wm, info, hash, now, err)
			}
			rec.HarvestedAt = now
			_, up, err := statsdb.UpsertRuns(h.db, []*logs.RunRecord{rec})
			if err != nil {
				return err
			}
			stats.Ingested += up.Inserted
			stats.Updated += up.Updated
			h.mIngested.Add(float64(up.Inserted))
			h.mUpdated.Add(float64(up.Updated))
			if h.onIngest != nil {
				if err := h.onIngest(info.Path); err != nil {
					return err
				}
			}
			return h.markLocked(wm, &Watermark{
				Path: info.Path, MTime: info.MTime, Size: info.Size, Hash: hash, At: now,
			})
		})
	}()
	if err != nil && h.seen != 0 {
		stats.Scanned = h.logsThrough(last)
		stats.WatermarkHits = stats.Scanned - missed
	}
	h.mScanned.Add(float64(stats.Scanned))
	h.mHits.Add(float64(stats.WatermarkHits))
	if err != nil {
		tr.SetArg(span, "aborted", "true")
		tr.End(span)
		return stats, err
	}

	stats.WallSeconds = time.Since(wallStart).Seconds()
	h.passes++
	stats.Pass = h.passes
	h.lastPass = stats
	h.totals.Scanned += stats.Scanned
	h.totals.WatermarkHits += stats.WatermarkHits
	h.totals.BodiesRead += stats.BodiesRead
	h.totals.Ingested += stats.Ingested
	h.totals.Updated += stats.Updated
	h.totals.Quarantined += stats.Quarantined
	h.mPasses.Inc()
	h.mLastPass.Set(now)
	h.mPassWall.Observe(stats.WallSeconds)
	h.refreshGaugesLocked()
	tr.SetArg(span, "scanned", fmt.Sprint(stats.Scanned))
	tr.SetArg(span, "ingested", fmt.Sprint(stats.Ingested))
	tr.SetArg(span, "quarantined", fmt.Sprint(stats.Quarantined))
	tr.End(span)
	if err := appendEntry(h.journal, journalEntry{Type: entryPass, Pass: &stats}); err != nil {
		return stats, err
	}
	h.seen, h.counted = seen, stats.Scanned
	return stats, nil
}

// logsThrough counts the logs a walk visits up to and including the log
// at path.
func (h *Harvester) logsThrough(path string) int {
	n := 0
	stop := errors.New("stop")
	_ = h.fs.WalkSince(runsRoot, 0, func(info vfs.FileInfo) error { // stop, once it reaches path
		if info.Name == logs.LogName {
			n++
		}
		if info.Path == path {
			return stop
		}
		return nil
	})
	return n
}

// markLocked records wm, replacing old (the path's current mark, nil for
// none), in memory and appends it to the journal.
func (h *Harvester) markLocked(old, wm *Watermark) error {
	h.marks[wm.Path] = wm
	if old != nil && old.Quarantined {
		h.quarantined--
	}
	if wm.Quarantined {
		h.quarantined++
	}
	if wm.MTime > h.newest {
		h.newest = wm.MTime
	} else if old != nil && old.MTime == h.newest && wm.MTime < old.MTime {
		h.countMarksLocked() // the newest mark moved back
	}
	return appendEntry(h.journal, journalEntry{Type: entryWatermark, Watermark: wm})
}

// quarantineLocked holds a corrupt file out of the database, watermarked
// so it is not re-read until it changes; old is its current mark.
func (h *Harvester) quarantineLocked(stats *PassStats, old *Watermark, info vfs.FileInfo, hash string, now float64, cause error) error {
	stats.Quarantined++
	h.mQuarantined.Inc()
	return h.markLocked(old, &Watermark{
		Path: info.Path, MTime: info.MTime, Size: info.Size, Hash: hash, At: now,
		Quarantined: true, Error: cause.Error(),
	})
}

// countMarksLocked counts the quarantined marks and finds the newest
// mtime from scratch.
func (h *Harvester) countMarksLocked() {
	h.quarantined, h.newest = 0, 0
	for _, wm := range h.marks {
		if wm.Quarantined {
			h.quarantined++
		}
		if wm.MTime > h.newest {
			h.newest = wm.MTime
		}
	}
}

// refreshGaugesLocked publishes the derived gauges after a pass or load.
func (h *Harvester) refreshGaugesLocked() {
	h.mMarks.Set(float64(len(h.marks)))
	h.mQuarSize.Set(float64(h.quarantined))
	if len(h.marks) > 0 {
		lag := h.opts.Clock() - h.newest
		if lag < 0 {
			lag = 0
		}
		h.mLag.Set(lag)
	}
}

// Status snapshots the harvester for the /api/harvest endpoint and the
// dashboard's harvest panel.
func (h *Harvester) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Status{
		Root:       runsRoot,
		Passes:     h.passes,
		LastPass:   h.lastPass,
		Watermarks: len(h.marks),
		TornLines:  h.torn,
		Recovered:  h.recovered,
		Totals:     h.totals,
	}
	if h.quarantined > 0 {
		for _, wm := range h.marks {
			if wm.Quarantined {
				st.Quarantine = append(st.Quarantine, QuarantineEntry{Path: wm.Path, Error: wm.Error, At: wm.At})
			}
		}
		sort.Slice(st.Quarantine, func(i, j int) bool { return st.Quarantine[i].Path < st.Quarantine[j].Path })
	}
	if len(h.marks) > 0 {
		if lag := h.opts.Clock() - h.newest; lag > 0 {
			st.WatermarkLag = lag
		}
	}
	return st
}

// Quarantine returns the quarantined files, sorted by path.
func (h *Harvester) Quarantine() []QuarantineEntry {
	return h.Status().Quarantine
}

// Records reads the harvested run records back from the database in
// (forecast, year, day) order like logs.Crawl, so planners built on
// crawled slices can feed from a harvested database unchanged. Runs of
// one forecast and day (a rerun, at another start) come in harvest
// order, as statsdb.ReadRuns gives them.
func (h *Harvester) Records() ([]*logs.RunRecord, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return statsdb.ReadRuns(h.db)
}

// Schedule runs a harvest pass every interval sim-seconds on eng, from
// interval after now until horizon — the always-on companion to the
// monitor's rule tick. Pass errors stop the schedule and are reported
// through onErr (which may be nil).
func Schedule(eng *sim.Engine, h *Harvester, interval, horizon float64, onErr func(error)) {
	if interval <= 0 {
		return
	}
	sched := eng.Scope("harvest")
	var tick func()
	tick = func() {
		if _, err := h.Pass(); err != nil {
			if onErr != nil {
				onErr(err)
			}
			return
		}
		if eng.Now()+interval <= horizon {
			sched.After(interval, tick)
		}
	}
	sched.After(interval, tick)
}
