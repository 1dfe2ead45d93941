package logs

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the run-log parser, which the
// harvester points at whatever files it crawls. Parse must never panic,
// and Format must reach a fixpoint on every text Parse accepts:
// Format(Parse(Format(r))) == Format(r). Walltimes print with %.2f, so
// the check compares formatted text, not records.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		r, err := Parse(text)
		if err != nil {
			return
		}
		once := Format(r)
		again, err := Parse(once)
		if err != nil {
			t.Fatalf("Parse rejects Format's output of an accepted log: %v\n%s", err, once)
		}
		if twice := Format(again); twice != once {
			t.Fatalf("Format is not a fixpoint:\n%s\nthen\n%s", once, twice)
		}
	})
}

// FuzzParseMatchesReference holds parse to referenceParse: on every text,
// with and without a path, both accept with the same record or reject
// with the same ParseError.
func FuzzParseMatchesReference(f *testing.F) {
	good := Format(sample())
	for _, seed := range append(parseSeeds(),
		"\n",
		"\n\n#\n",
		good+"\n\n",
		"forecast: a\nforecast: b\n",
		"day: 1\nday: x\n",
		"\r\n  day :  7 \r\n\u00a0node:\tn1\u0085\n",
		"a\nb",
		"x: 1\n:\n",
		"code_factor: NaN\nstart: 1\nstart: Inf\n",
		strings.Replace(good, "end: ", "end: -Inf", 1),
		strings.Replace(good, "code_factor: 1.0000", "# code_factor\ncode_factor: 1e999", 1),
	) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, path := range []string{"", "/runs/tillamook/2005-021/run.log"} {
			got, err := parse(text, path)
			want, wantErr := referenceParse(text, path)
			switch {
			case !reflect.DeepEqual(err, wantErr):
				t.Fatalf("parse(%q, %q) error = %v, reference %v", text, path, err, wantErr)
			case err == nil && *got != *want:
				t.Fatalf("parse(%q, %q) = %+v, reference %+v", text, path, *got, *want)
			}
		}
	})
}

// parseSeeds are the fuzz targets' seed logs: a good one and mangled ones.
func parseSeeds() []string {
	good := Format(sample())
	mangle := func(old, new string) string { return strings.Replace(good, old, new, 1) }
	return []string{
		good,
		good + "future_field: whatever\n# trailing comment\n\n",
		"",
		"forecast=tillamook\n",
		"forecast tillamook\n",
		strings.TrimSuffix(good, "\n"),
		mangle("walltime: 80333.00\nstatus: completed\nproducts: 8\n", "walltime: 803"),
		mangle("day: 21", ": 21"),
		mangle("day: 21", "day: twenty-one"),
		mangle("walltime: 80333.00", "walltime: NaN"),
		mangle("start: 1738800.00", "start: +Inf"),
		mangle("region: tillamook", "region: tillamook\nday: 22"),
		mangle("status: completed", "status: running"),
		mangle("status: completed", "status: exploded"),
		// A completed walltime under the log's 0.01 s resolution would
		// format as 0.00, which Parse rejects.
		mangle("walltime: 80333.00", "walltime: 0.004"),
	}
}

// referenceParse is the plainest run-log parser: strings.Split for the
// lines and a map for the keys seen. FuzzParseMatchesReference holds
// parse, which scans the lines in place, to it.
func referenceParse(text, path string) (*RunRecord, error) {
	fail := func(line int, format string, args ...any) error {
		return &ParseError{Path: path, Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	if text == "" {
		return nil, fail(0, "empty log")
	}
	if !strings.HasSuffix(text, "\n") {
		// Every writer ends the log with a newline; its absence means the
		// file was cut off mid-write (a crashed run, a partial rsync).
		lines := strings.Split(text, "\n")
		return nil, fail(len(lines), "truncated log: last line %q has no newline", lines[len(lines)-1])
	}
	r := &RunRecord{}
	seen := make(map[string]int)
	for i, raw := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
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
		known := true
		var err error
		switch key {
		case "forecast":
			r.Forecast = value
		case "region":
			r.Region = value
		case "year":
			r.Year, err = strconv.Atoi(value)
		case "day":
			r.Day, err = strconv.Atoi(value)
		case "node":
			r.Node = value
		case "code_version":
			r.CodeVersion = value
		case "code_factor":
			r.CodeFactor, err = strconv.ParseFloat(value, 64)
		case "mesh":
			r.MeshName = value
		case "mesh_sides":
			r.MeshSides, err = strconv.Atoi(value)
		case "timesteps":
			r.Timesteps, err = strconv.Atoi(value)
		case "start":
			r.Start, err = strconv.ParseFloat(value, 64)
		case "end":
			r.End, err = strconv.ParseFloat(value, 64)
		case "walltime":
			r.Walltime, err = strconv.ParseFloat(value, 64)
		case "status":
			r.Status = value
		case "products":
			r.Products, err = strconv.Atoi(value)
		default:
			known = false
		}
		if err != nil {
			return nil, fail(lineNo, "bad %s value %q: %v", key, value, err)
		}
		if known {
			if prev, dup := seen[key]; dup {
				return nil, fail(lineNo, "duplicate key %s (first on line %d)", key, prev)
			}
			seen[key] = lineNo
		}
	}
	for _, f := range []struct {
		key string
		val float64
	}{
		{"code_factor", r.CodeFactor},
		{"start", r.Start},
		{"end", r.End},
		{"walltime", r.Walltime},
	} {
		if math.IsNaN(f.val) || math.IsInf(f.val, 0) {
			return nil, fail(seen[f.key], "non-finite %s value %v", f.key, f.val)
		}
	}
	if err := r.Validate(); err != nil {
		return nil, &ParseError{Path: path, Msg: strings.TrimPrefix(err.Error(), "logs: ")}
	}
	r.SourcePath = path
	return r, nil
}
