package logs

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func sample() *RunRecord {
	return &RunRecord{
		Forecast:    "forecast-tillamook",
		Region:      "tillamook",
		Year:        2005,
		Day:         21,
		Node:        "fnode01",
		CodeVersion: "elcirc-5.01",
		CodeFactor:  1.0,
		MeshName:    "tillamook-mesh-v1",
		MeshSides:   30000,
		Timesteps:   11520,
		Start:       1738800,
		End:         1819133,
		Walltime:    80333,
		Status:      StatusCompleted,
		Products:    8,
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	r := sample()
	got, err := Parse(Format(r))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestParseIgnoresUnknownKeysAndComments(t *testing.T) {
	text := Format(sample()) + "future_field: whatever\n# trailing comment\n\n"
	got, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Forecast != "forecast-tillamook" {
		t.Fatalf("Forecast = %q", got.Forecast)
	}
}

func TestParseRejectsMalformedValues(t *testing.T) {
	bad := []string{
		strings.Replace(Format(sample()), "day: 21", "day: twenty-one", 1),
		strings.Replace(Format(sample()), "walltime: 80333.00", "walltime: NaNish", 1),
		"forecast=tillamook\n", // no colon separator
	}
	for i, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("case %d: Parse accepted malformed log", i)
		}
	}
}

func TestParseFailureModes(t *testing.T) {
	mangle := func(old, new string) string {
		return strings.Replace(Format(sample()), old, new, 1)
	}
	cases := []struct {
		name string
		text string
		want string // substring the error must carry
	}{
		{"empty log", "", "empty log"},
		{"truncated last line", strings.TrimSuffix(Format(sample()), "\n"), "truncated log"},
		{"truncated mid-value", mangle("walltime: 80333.00\nstatus: completed\nproducts: 8\n", "walltime: 803"), "truncated log"},
		{"no separator", "forecast tillamook\n", "no key separator"},
		{"empty key", mangle("day: 21", ": 21"), "empty key"},
		{"non-integer day", mangle("day: 21", "day: twenty-one"), `bad day value "twenty-one"`},
		{"non-float walltime", mangle("walltime: 80333.00", "walltime: NaNish"), "bad walltime value"},
		{"NaN walltime", mangle("walltime: 80333.00", "walltime: NaN"), "non-finite walltime"},
		{"infinite start", mangle("start: 1738800.00", "start: +Inf"), "non-finite start"},
		{"duplicate key", mangle("region: tillamook", "region: tillamook\nday: 22"), "duplicate key day"},
		{"invalid record", mangle("status: completed", "status: exploded"), "unknown status"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.text)
		if err == nil {
			t.Errorf("%s: Parse accepted malformed log", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseFileErrorsCarryPathAndLine(t *testing.T) {
	fs := vfs.New(nil)
	if err := fs.WriteString("/runs/f/2005-001/run.log", "forecast: f\nday: zebra\n"); err != nil {
		t.Fatal(err)
	}
	_, err := ParseFile(fs, "/runs/f/2005-001/run.log")
	if err == nil {
		t.Fatal("ParseFile accepted corrupt log")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Path != "/runs/f/2005-001/run.log" || pe.Line != 2 {
		t.Fatalf("ParseError context = %q line %d, want path and line 2", pe.Path, pe.Line)
	}
	if !strings.Contains(err.Error(), "/runs/f/2005-001/run.log:2:") {
		t.Fatalf("error %q lacks file:line prefix", err)
	}
	// Crawl surfaces the same context.
	if _, err := Crawl(fs, "/runs"); err == nil || !strings.Contains(err.Error(), "run.log:2:") {
		t.Fatalf("Crawl error = %v, want file:line context", err)
	}
}

func TestValidateRules(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunRecord)
	}{
		{"empty forecast", func(r *RunRecord) { r.Forecast = "" }},
		{"day zero", func(r *RunRecord) { r.Day = 0 }},
		{"day too large", func(r *RunRecord) { r.Day = 400 }},
		{"bad status", func(r *RunRecord) { r.Status = "exploded" }},
		{"completed without walltime", func(r *RunRecord) { r.Walltime = 0 }},
		{"completed under the log's resolution", func(r *RunRecord) { r.Walltime = 0.004 }},
	}
	for _, tc := range cases {
		r := sample()
		tc.mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad record", tc.name)
		}
	}
	running := sample()
	running.Status = StatusRunning
	running.Walltime = 0
	running.End = 0
	if err := running.Validate(); err != nil {
		t.Errorf("running record rejected: %v", err)
	}
}

func TestRunDirLayout(t *testing.T) {
	if got := RunDir("forecast-tillamook", 2005, 7); got != "/runs/forecast-tillamook/2005-007" {
		t.Fatalf("RunDir = %q", got)
	}
	if got := LogPath("/runs/f/2005-007"); got != "/runs/f/2005-007/run.log" {
		t.Fatalf("LogPath = %q", got)
	}
}

func TestWriteAndCrawl(t *testing.T) {
	fs := vfs.New(nil)
	r1 := sample()
	r2 := sample()
	r2.Day = 22
	r3 := sample()
	r3.Forecast = "forecast-columbia"
	r3.Day = 5
	for _, r := range []*RunRecord{r1, r2, r3} {
		if err := Write(fs, r); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated files must not break the crawl.
	if err := fs.Append("/runs/forecast-tillamook/2005-021/outputs/1_salt.63", 100); err != nil {
		t.Fatal(err)
	}
	records, err := Crawl(fs, "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("crawled %d records, want 3", len(records))
	}
	// Sorted by forecast then day.
	if records[0].Forecast != "forecast-columbia" || records[1].Day != 21 || records[2].Day != 22 {
		t.Fatalf("order: %v %v %v", records[0].Forecast, records[1].Day, records[2].Day)
	}
}

func TestParsedRecordsCarrySourcePath(t *testing.T) {
	// Every record parsed from a file names that file, so statsdb rows
	// trace back to disk without re-crawling the run tree.
	fs := vfs.New(nil)
	r := sample()
	if err := Write(fs, r); err != nil {
		t.Fatal(err)
	}
	path := LogPath(RunDir(r.Forecast, r.Year, r.Day))
	got, err := ParseFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SourcePath != path {
		t.Fatalf("ParseFile SourcePath = %q, want %q", got.SourcePath, path)
	}
	records, err := Crawl(fs, "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].SourcePath != path {
		t.Fatalf("Crawl SourcePath = %q, want %q", records[0].SourcePath, path)
	}
	fromText, err := ParseFrom(Format(r), path)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.SourcePath != path {
		t.Fatalf("ParseFrom SourcePath = %q", fromText.SourcePath)
	}
	inMemory, err := Parse(Format(r))
	if err != nil {
		t.Fatal(err)
	}
	if inMemory.SourcePath != "" {
		t.Fatalf("Parse SourcePath = %q, want empty", inMemory.SourcePath)
	}
}

func TestCrawlMissingRootIsEmpty(t *testing.T) {
	records, err := Crawl(vfs.New(nil), "/runs")
	if err != nil || records != nil {
		t.Fatalf("Crawl(missing) = %v, %v", records, err)
	}
}

func TestCrawlPropagatesParseErrors(t *testing.T) {
	fs := vfs.New(nil)
	if err := fs.WriteString("/runs/f/2005-001/run.log", "day: zebra\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := Crawl(fs, "/runs"); err == nil {
		t.Fatal("Crawl accepted corrupt log")
	}
}

func TestWriteOverwritesRunningWithCompleted(t *testing.T) {
	// The factory writes a provisional "running" log at launch and the
	// final log at completion; the crawler must see the final one.
	fs := vfs.New(nil)
	r := sample()
	r.Status = StatusRunning
	r.Walltime = 0
	r.End = 0
	if err := Write(fs, r); err != nil {
		t.Fatal(err)
	}
	r.Status = StatusCompleted
	r.Walltime = 80333
	r.End = r.Start + r.Walltime
	if err := Write(fs, r); err != nil {
		t.Fatal(err)
	}
	records, err := Crawl(fs, "/runs")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Status != StatusCompleted {
		t.Fatalf("records = %+v", records)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	fs := vfs.New(nil)
	r := sample()
	r.Day = 0
	if err := Write(fs, r); err == nil {
		t.Fatal("Write accepted invalid record")
	}
}

// Property: Format→Parse round-trips arbitrary well-formed records.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(day uint16, steps uint16, sides uint16, wall uint32, factor uint8) bool {
		r := sample()
		r.Day = int(day%366) + 1
		r.Timesteps = int(steps) + 1
		r.MeshSides = int(sides) + 1
		r.Walltime = float64(wall%1000000) + 1
		r.CodeFactor = math.Round((0.5+float64(factor)*0.01)*1e4) / 1e4
		r.End = r.Start + r.Walltime
		got, err := Parse(Format(r))
		if err != nil {
			return false
		}
		return *got == *r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
