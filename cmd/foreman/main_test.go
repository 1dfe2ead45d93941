package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
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
