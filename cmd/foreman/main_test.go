package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/logs"
)

// runMainEnv turns the test binary into the foreman command: with it set,
// TestMain runs main() on the command line instead of the tests, so
// TestGoldenStdout can re-execute the binary as the CLI.
const runMainEnv = "FOREMAN_TEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current stdout")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPolicyByNameRejectsUnknown(t *testing.T) {
	for name, want := range map[string]core.ReschedulePolicy{
		"minimal":   core.MinimalMove,
		"reshuffle": core.FullReshuffle,
	} {
		if got, ok := policyByName(name); !ok || got != want {
			t.Errorf("policyByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"reshufle", "", "minimal-move"} {
		if _, ok := policyByName(name); ok {
			t.Errorf("policyByName(%q) accepted", name)
		}
	}
}

// TestHarvestWarnsOfIgnoredFlags checks that each flag reporting on the
// bootstrap campaign says it is ignored when -harvest replaces the
// campaign with a harvested tree.
func TestHarvestWarnsOfIgnoredFlags(t *testing.T) {
	for _, args := range [][]string{{"-slo"}, {"-blame", "all"}, {"-spc", "all"}, {"-engineprof"}} {
		cmd := exec.Command(os.Args[0], append([]string{"-harvest", t.TempDir()}, args...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if _, err := cmd.Output(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		if want := args[0] + " "; !strings.Contains(stderr.String(), want) || !strings.Contains(stderr.String(), "it is ignored with -harvest") {
			t.Errorf("-harvest %v: stderr %q has no warning that %s is ignored", args, stderr.String(), args[0])
		}
	}
}

// TestPlanDayWrapsAtYearEnd checks that the plan is for the day after the
// newest history record, and that the day after a year's last day, in a
// leap year or not, is day 1.
func TestPlanDayWrapsAtYearEnd(t *testing.T) {
	for _, c := range []struct{ year, day, want int }{
		{2005, 365, 1},
		{2004, 365, 366},
		{2004, 366, 1},
		{2005, 42, 43},
	} {
		records := []*logs.RunRecord{{Year: c.year - 1, Day: 300}, {Year: c.year, Day: c.day}, {Year: c.year, Day: 1}}
		if got := planDay(records); got != c.want {
			t.Errorf("planDay after %d-%03d = %d, want %d", c.year, c.day, got, c.want)
		}
	}
	if got := planDay(nil); got != 1 {
		t.Errorf("planDay with no records = %d, want 1", got)
	}
}

// TestHarvestOSTreeRoundTrip harvests a run tree on disk twice, then asks
// it for a code version's provenance. The cold invocation ingests every
// log; the warm one, its database restored from the snapshot, finds each
// log unchanged by its watermark and ingests none; the report names each
// forecast on that version with the paths of its logs under /runs.
func TestHarvestOSTreeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	versions := map[string]string{"forecast-a": "elcirc-5.01", "forecast-b": "elcirc-5.01", "forecast-c": "elcirc-5.02"}
	n := 0
	for forecast, version := range versions {
		for day := 1; day <= 2; day++ {
			r := &logs.RunRecord{
				Forecast: forecast, Region: "columbia", Year: 2005, Day: day, Node: "fnode01",
				CodeVersion: version, CodeFactor: 1, MeshName: "m", MeshSides: 30000, Timesteps: 5760,
				Start: 3600, End: 43600, Walltime: 40000, Status: logs.StatusCompleted, Products: 8,
			}
			writeRunLog(t, dir, r)
			n++
		}
	}
	run := func(args ...string) string { t.Helper(); return runForeman(t, args...) }
	for _, c := range []struct{ name, want string }{
		{"cold", fmt.Sprintf("scanned %d, ingested %d, updated 0, unchanged 0, quarantined 0\n", n, n)},
		{"warm", fmt.Sprintf("scanned %d, ingested 0, updated 0, unchanged %d, quarantined 0\n", n, n)},
	} {
		if out := run("-harvest", dir); !strings.Contains(out, "harvest "+dir+": "+c.want) {
			t.Errorf("%s harvest: stdout has no line ending %q:\n%s", c.name, c.want, out)
		}
	}
	out := run("-harvest", dir, "-provenance", "elcirc-5.01")
	_, report, _ := strings.Cut(out, "provenance: code version elcirc-5.01\n")
	for _, want := range []string{
		"  4 run(s) across 2 forecast(s)\n",
		"  forecast-a                      2 runs  2005-001 .. 2005-002  nodes fnode01\n" +
			"      /runs/forecast-a/2005-001/run.log\n      /runs/forecast-a/2005-002/run.log\n",
		"  forecast-b                      2 runs  2005-001 .. 2005-002  nodes fnode01\n" +
			"      /runs/forecast-b/2005-001/run.log\n      /runs/forecast-b/2005-002/run.log\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("provenance report lacks %q:\n%s", want, out)
		}
	}
}

// TestHarvestRestartKeepsEveryColumn harvests a run tree on disk, then
// harvests it again in a new process, whose database the snapshot
// restores: the second invocation must answer a query over the runs
// key and provenance columns with the first one's rows, harvested_at
// included.
func TestHarvestRestartKeepsEveryColumn(t *testing.T) {
	dir := t.TempDir()
	for _, forecast := range []string{"forecast-b", "forecast-a"} {
		writeRunLog(t, dir, &logs.RunRecord{
			Forecast: forecast, Region: "columbia", Year: 2005, Day: 1, Node: "fnode01",
			CodeVersion: "elcirc-5.01", CodeFactor: 1, MeshName: "m", MeshSides: 30000, Timesteps: 5760,
			Start: 3600, End: 43600, Walltime: 40000, Status: logs.StatusCompleted, Products: 8,
		})
	}
	const header = "forecast | day | start | harvested_at | source_path\n"
	answer := func() string {
		t.Helper()
		out := runForeman(t, "-harvest", dir, "-sql",
			"SELECT forecast, day, start, harvested_at, source_path FROM runs ORDER BY forecast")
		_, rows, ok := strings.Cut(out, header)
		if !ok {
			t.Fatalf("stdout has no SQL answer:\n%s", out)
		}
		return rows
	}
	cold := answer()
	lines := strings.Split(strings.TrimSuffix(cold, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("cold harvest answered %d rows, want 2:\n%s", len(lines), cold)
	}
	for _, line := range lines {
		if cells := strings.Split(line, " | "); len(cells) != 5 || cells[3] == "0" {
			t.Fatalf("cold harvest row %q has no harvested_at", line)
		}
	}
	if warm := answer(); warm != cold {
		t.Errorf("restarted harvest answered\n%swant the first invocation's\n%s", warm, cold)
	}
}

// TestHarvestOverflowingHistoryPlansFinite harvests one log whose
// walltime, scaled from its one timestep to the spec's 5760, overflows
// float64. The estimate is refused, so the plan falls back to the spec's
// work model: no node's load and no completion reads +Inf, and the day's
// deadlines are judged on finite numbers.
func TestHarvestOverflowingHistoryPlansFinite(t *testing.T) {
	dir := t.TempDir()
	writeRunLog(t, dir, &logs.RunRecord{
		Forecast: "forecast-columbia", Region: "columbia", Year: 2005, Day: 1, Node: "fnode01",
		CodeVersion: "elcirc-5.01", CodeFactor: 1, MeshName: "m", MeshSides: 28000, Timesteps: 1,
		Start: 3600, End: 43600, Walltime: 1e308, Status: logs.StatusCompleted, Products: 8,
	})
	out := runForeman(t, "-harvest", dir)
	if !strings.Contains(out, "ingested 1,") {
		t.Fatalf("the log was not harvested:\n%s", out)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(out, bad) {
			t.Errorf("stdout holds %q:\n%s", bad, out)
		}
	}
}

// writeRunLog writes r's run log where the run tree under dir keeps it.
func writeRunLog(t *testing.T, dir string, r *logs.RunRecord) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(strings.TrimPrefix(logs.LogPath(logs.RunDir(r.Forecast, r.Year, r.Day)), "/runs/")))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(logs.Format(r)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runForeman re-executes the test binary as the foreman command and
// returns its stdout, failing the test on a non-zero exit.
func runForeman(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestUtilizationDriftCarriesPlanDay checks that the drift rows persist
// the day the plan is for: the day after the 3-day bootstrap's history,
// so they join runs on (forecast, day).
func TestUtilizationDriftCarriesPlanDay(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-utilization", "all", "-sql", "SELECT day, COUNT(*) FROM drift GROUP BY day")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.HasSuffix(string(out), "\nday | count(*)\n4 | 10\n") {
		t.Fatalf("drift days: stdout ends %q, want the SQL answer \"4 | 10\"", string(out[max(0, len(out)-80):]))
	}
}

// TestGoldenStdout pins the command's stdout for invocations that print no
// wall-clock figure or address, and its flags through the -h text: a
// refactor of the CLI must leave them byte for byte as they were. Refresh with `go test ./cmd/foreman -update`.
func TestGoldenStdout(t *testing.T) {
	for name, args := range map[string]string{
		"fail-reshuffle": "-fail fnode03 -policy reshuffle -scripts",
		"observatories":  "-blame all -spc all -serving -utilization all -slo",
		"help":           "-h",
	} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, strings.Fields(args)) })
	}
}

// checkGolden runs the command with args and compares its stdout (its
// flags' help text for -h) with testdata/<name>.golden, reporting the
// first line that differs.
func checkGolden(t *testing.T, name string, args []string) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr.String())
	}
	if name == "help" {
		got = flagHelp(stderr.Bytes())
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%v: stdout differs from %s at line %d:\ngot  %q\nwant %q", args, path, i+1, gl, wl)
		}
	}
}

// flagHelp keeps the command's own flags from -h output on stderr. Its
// first line names the binary, here the test binary's temporary path,
// and the test binary adds its -test.* and -update flags.
func flagHelp(out []byte) []byte {
	var b bytes.Buffer
	skip := false
	for _, line := range strings.SplitAfter(string(out), "\n")[1:] {
		if strings.HasPrefix(line, "  -") {
			name := strings.Fields(line)[0][1:]
			skip = strings.HasPrefix(name, "test.") || name == "update"
		}
		if !skip {
			b.WriteString(line)
		}
	}
	return b.Bytes()
}
