// Package logs implements the forecast factory's per-run-directory log
// files: writing them as runs complete, parsing them back, and crawling a
// directory tree of past runs to harvest statistics — the pipeline §4.3.2
// of the paper uses to populate its statistics database.
//
// Each forecast runs in its own directory holding executables, inputs,
// outputs, and log files; that flat structure makes longitudinal questions
// ("find all forecasts that use code version X") hard to answer directly,
// which is exactly why the statistics database exists.
package logs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/vfs"
)

// Run status values recorded in logs.
const (
	StatusCompleted = "completed"
	StatusRunning   = "running"
	StatusDropped   = "dropped"
)

// RunRecord is one run execution: one tuple per (forecast, day), matching
// the paper's observation that the statistics database stays small because
// it records runs, not the thousands of per-task executions inside them.
type RunRecord struct {
	Forecast    string  `db:"forecast"`
	Region      string  `db:"region"`
	Year        int     `db:"year"`
	Day         int     `db:"day"` // day of year, 1-based
	Node        string  `db:"node"`
	CodeVersion string  `db:"code_version"`
	CodeFactor  float64 `db:"code_factor"`
	MeshName    string  `db:"mesh"`
	MeshSides   int     `db:"mesh_sides"`
	Timesteps   int     `db:"timesteps"`
	Start       float64 `db:"start"`    // seconds since campaign epoch
	End         float64 `db:"end"`      // seconds since campaign epoch (0 if running)
	Walltime    float64 `db:"walltime"` // seconds (0 if running)
	Status      string  `db:"status"`
	Products    int     `db:"products"`
	// HarvestedAt is the sim time a harvester wrote the record into the
	// statistics database (0 for a record loaded any other way). Like
	// SourcePath it is never written into the log text.
	HarvestedAt float64 `db:"harvested_at"`
	// SourcePath is the log file this record was parsed from ("" when the
	// record was built in memory). It travels with the record into the
	// statistics database so every row is traceable back to disk without
	// re-crawling the run tree; it is derived from the file's location,
	// never written into the log text itself.
	SourcePath string `db:"source_path"`
}

// Validate checks the record for the fields every consumer relies on.
// Its numbers must be finite: the statistics database would store a
// non-finite one as 0.
func (r *RunRecord) Validate() error {
	if r.Forecast == "" {
		return fmt.Errorf("logs: record has empty forecast name")
	}
	if r.Day <= 0 || r.Day > 366 {
		return fmt.Errorf("logs: record %s has invalid day %d", r.Forecast, r.Day)
	}
	switch r.Status {
	case StatusCompleted, StatusRunning, StatusDropped:
	default:
		return fmt.Errorf("logs: record %s/%d has unknown status %q", r.Forecast, r.Day, r.Status)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"code factor", r.CodeFactor}, {"start", r.Start}, {"end", r.End}, {"walltime", r.Walltime}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("logs: record %s/%d has non-finite %s %v", r.Forecast, r.Day, f.name, f.v)
		}
	}
	// Format stores walltimes to 0.01 s: a completed run shorter than
	// that would be written as 0.00 and could not be read back.
	if r.Status == StatusCompleted && r.Walltime < 0.01 {
		return fmt.Errorf("logs: completed record %s/%d has walltime %v", r.Forecast, r.Day, r.Walltime)
	}
	return nil
}

// RunDir returns the conventional run directory for a forecast execution:
// /runs/<forecast>/<year>-<day> with the day zero-padded to three digits.
func RunDir(forecast string, year, day int) string {
	return fmt.Sprintf("/runs/%s/%d-%03d", forecast, year, day)
}

// LogName is the file name of the run log inside every run directory.
const LogName = "run.log"

// LogPath returns the run log path inside a run directory.
func LogPath(dir string) string { return dir + "/" + LogName }

// Format renders a record as the textual run log.
func Format(r *RunRecord) string {
	var b strings.Builder
	b.WriteString("# CORIE forecast run log\n")
	fmt.Fprintf(&b, "forecast: %s\n", r.Forecast)
	fmt.Fprintf(&b, "region: %s\n", r.Region)
	fmt.Fprintf(&b, "year: %d\n", r.Year)
	fmt.Fprintf(&b, "day: %d\n", r.Day)
	fmt.Fprintf(&b, "node: %s\n", r.Node)
	fmt.Fprintf(&b, "code_version: %s\n", r.CodeVersion)
	fmt.Fprintf(&b, "code_factor: %.4f\n", r.CodeFactor)
	fmt.Fprintf(&b, "mesh: %s\n", r.MeshName)
	fmt.Fprintf(&b, "mesh_sides: %d\n", r.MeshSides)
	fmt.Fprintf(&b, "timesteps: %d\n", r.Timesteps)
	fmt.Fprintf(&b, "start: %.2f\n", r.Start)
	fmt.Fprintf(&b, "end: %.2f\n", r.End)
	fmt.Fprintf(&b, "walltime: %.2f\n", r.Walltime)
	fmt.Fprintf(&b, "status: %s\n", r.Status)
	fmt.Fprintf(&b, "products: %d\n", r.Products)
	return b.String()
}

// Write stores the record's log file in its run directory.
func Write(fs *vfs.FS, r *RunRecord) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return fs.WriteString(LogPath(RunDir(r.Forecast, r.Year, r.Day)), Format(r))
}

// ParseError describes a malformed run log, pointing at the file and
// line where parsing failed so corrupt logs in a tree of thousands of
// run directories can be located directly.
type ParseError struct {
	Path string // log file path; empty when parsing from memory
	Line int    // 1-based line number; 0 when not line-specific
	Msg  string
}

// Error renders "logs: <path>:<line>: <msg>", omitting absent context.
func (e *ParseError) Error() string {
	switch {
	case e.Path != "" && e.Line > 0:
		return fmt.Sprintf("logs: %s:%d: %s", e.Path, e.Line, e.Msg)
	case e.Path != "":
		return fmt.Sprintf("logs: %s: %s", e.Path, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("logs: line %d: %s", e.Line, e.Msg)
	default:
		return "logs: " + e.Msg
	}
}

// Parse reads a run log back into a record. Unknown keys are ignored so
// log formats can grow; malformed values for known keys, duplicated
// keys, truncated logs, and non-finite numbers are *ParseError values.
func Parse(text string) (*RunRecord, error) {
	return parse(text, "")
}

// ParseFrom parses log text already read from path, recording path both
// in any ParseError and as the record's SourcePath — for callers (the
// harvester) that read the file themselves to hash it.
func ParseFrom(text, path string) (*RunRecord, error) {
	return parse(text, path)
}

// ParseFile reads and parses a run log, reporting failures with file and
// line context.
func ParseFile(fs *vfs.FS, path string) (*RunRecord, error) {
	text, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(text, path)
}

// The keys a log knows, in Format's order: indexes into the record a
// parse keeps of the line each key came on.
const (
	keyForecast = iota
	keyRegion
	keyYear
	keyDay
	keyNode
	keyCodeVersion
	keyCodeFactor
	keyMesh
	keyMeshSides
	keyTimesteps
	keyStart
	keyEnd
	keyWalltime
	keyStatus
	keyProducts
	numKeys
)

func parse(text, path string) (*RunRecord, error) {
	fail := func(line int, format string, args ...any) error {
		return &ParseError{Path: path, Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	if text == "" {
		return nil, fail(0, "empty log")
	}
	if !strings.HasSuffix(text, "\n") {
		// Every writer ends the log with a newline; its absence means the
		// file was cut off mid-write (a crashed run, a partial rsync).
		last := text[strings.LastIndexByte(text, '\n')+1:]
		return nil, fail(strings.Count(text, "\n")+1, "truncated log: last line %q has no newline", last)
	}
	r := &RunRecord{}
	var seen [numKeys]int // the line each known key came on; 0 until it does
	lineNo := 0
	for rest := text; rest != ""; {
		lineNo++
		end := strings.IndexByte(rest, '\n') // text ends with a newline
		line := strings.TrimSpace(rest[:end])
		rest = rest[end+1:]
		if line == "" || line[0] == '#' {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fail(lineNo, "no key separator in %q", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if key == "" {
			return nil, fail(lineNo, "empty key in %q", line)
		}
		k := -1
		var err error
		switch key {
		case "forecast":
			k, r.Forecast = keyForecast, value
		case "region":
			k, r.Region = keyRegion, value
		case "year":
			k = keyYear
			r.Year, err = strconv.Atoi(value)
		case "day":
			k = keyDay
			r.Day, err = strconv.Atoi(value)
		case "node":
			k, r.Node = keyNode, value
		case "code_version":
			k, r.CodeVersion = keyCodeVersion, value
		case "code_factor":
			k = keyCodeFactor
			r.CodeFactor, err = strconv.ParseFloat(value, 64)
		case "mesh":
			k, r.MeshName = keyMesh, value
		case "mesh_sides":
			k = keyMeshSides
			r.MeshSides, err = strconv.Atoi(value)
		case "timesteps":
			k = keyTimesteps
			r.Timesteps, err = strconv.Atoi(value)
		case "start":
			k = keyStart
			r.Start, err = strconv.ParseFloat(value, 64)
		case "end":
			k = keyEnd
			r.End, err = strconv.ParseFloat(value, 64)
		case "walltime":
			k = keyWalltime
			r.Walltime, err = strconv.ParseFloat(value, 64)
		case "status":
			k, r.Status = keyStatus, value
		case "products":
			k = keyProducts
			r.Products, err = strconv.Atoi(value)
		}
		if err != nil {
			return nil, fail(lineNo, "bad %s value %q: %v", key, value, err)
		}
		if k >= 0 {
			if prev := seen[k]; prev != 0 {
				return nil, fail(lineNo, "duplicate key %s (first on line %d)", key, prev)
			}
			seen[k] = lineNo
		}
	}
	for _, f := range [...]struct {
		k   int
		key string
		val float64
	}{
		{keyCodeFactor, "code_factor", r.CodeFactor},
		{keyStart, "start", r.Start},
		{keyEnd, "end", r.End},
		{keyWalltime, "walltime", r.Walltime},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) {
			return nil, fail(seen[f.k], "non-finite %s value %v", f.key, f.val)
		}
	}
	if err := r.Validate(); err != nil {
		return nil, &ParseError{Path: path, Msg: strings.TrimPrefix(err.Error(), "logs: ")}
	}
	r.SourcePath = path
	return r, nil
}

// Crawl walks all run directories under root (conventionally "/runs"),
// parses every run.log, and returns the records sorted by forecast then
// day. Directories without a run.log are skipped; parse errors abort the
// crawl so corrupt logs are noticed rather than silently dropped.
func Crawl(fs *vfs.FS, root string) ([]*RunRecord, error) {
	if !fs.Exists(root) {
		return nil, nil
	}
	var records []*RunRecord
	err := fs.Walk(root, func(info vfs.FileInfo) error {
		if info.IsDir || info.Name != LogName {
			return nil
		}
		rec, err := ParseFile(fs, info.Path)
		if err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].Forecast != records[j].Forecast {
			return records[i].Forecast < records[j].Forecast
		}
		if records[i].Year != records[j].Year {
			return records[i].Year < records[j].Year
		}
		return records[i].Day < records[j].Day
	})
	return records, nil
}
