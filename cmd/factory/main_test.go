package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv turns the test binary into the factory command: with it set,
// TestMain runs main() on the command line instead of the tests, so
// TestGoldenStdout can re-execute the binary as the CLI.
const runMainEnv = "FACTORY_TEST_RUN_MAIN"

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current stdout")

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenStdout pins the command's stdout for invocations that print no
// wall-clock figure or address, and its flags through the -h text: a
// refactor of the CLI must leave them byte for byte as they were. Refresh with `go test ./cmd/factory -update`.
func TestGoldenStdout(t *testing.T) {
	for name, args := range map[string]string{
		"fig9":   "-scenario fig9",
		"fig8":   "-scenario fig8 -days 12 -usage-interval 15 -harvest-interval 6 -serving-users 20000",
		"growth": "-scenario growth -days 23 -usage-interval 15",
		"help":   "-h",
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
