package logs

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the run-log parser, which the
// harvester points at whatever files it crawls. Parse must never panic,
// and Format must reach a fixpoint on every text Parse accepts:
// Format(Parse(Format(r))) == Format(r). Walltimes print with %.2f, so
// the check compares formatted text, not records.
func FuzzParse(f *testing.F) {
	good := Format(sample())
	mangle := func(old, new string) string { return strings.Replace(good, old, new, 1) }
	for _, seed := range []string{
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
	} {
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
