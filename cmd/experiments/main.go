// Command experiments regenerates the paper's evaluation: every figure
// (6–9) and in-text result (t1–t5), printing ASCII charts with
// paper-vs-measured comparison tables and optionally writing CSV data.
//
// Usage:
//
//	experiments [-id all|fig6|fig7|fig8|fig9|t1|t2|t3|t4|t5] [-csv dir] [-quiet]
//	            [-metrics-out file] [-trace-out file]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	id := flag.String("id", "all", "experiment to run (all, fig6..fig9, t1..t5, x1..x3, or a comma list)")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files into")
	quiet := flag.Bool("quiet", false, "print only the comparison tables, no charts")
	markdown := flag.String("markdown", "", "also write a paper-vs-measured markdown summary to this file")
	metricsOut := flag.String("metrics-out", "", "write Prometheus metrics from the experiment runs to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the experiment runs to this file")
	flag.Parse()

	// Same collection switch as cmd/factory and cmd/foreman: asking for
	// an export turns telemetry on, so paper-figure runs leave traces the
	// forensics layer can consume.
	var tel *telemetry.Telemetry
	if *metricsOut != "" || *traceOut != "" {
		tel = telemetry.New()
		experiments.SetTelemetry(tel)
		defer experiments.SetTelemetry(nil)
	}

	var reports []experiments.Report
	switch {
	case *id == "all":
		reports = experiments.All()
	case *id == "extensions":
		reports = experiments.Extensions()
	default:
		for _, one := range strings.Split(*id, ",") {
			r, ok := experiments.ByID(strings.TrimSpace(one))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n",
					one, strings.Join(experiments.IDs(), " "))
				os.Exit(2)
			}
			reports = append(reports, r)
		}
	}

	for _, r := range reports {
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		if *quiet {
			fmt.Println(r.Table())
		} else {
			fmt.Println(r.Render())
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, r.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	if *markdown != "" {
		if err := os.WriteFile(*markdown, []byte(experiments.MarkdownSummary(reports)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *markdown)
	}

	flushTelemetry(tel, *metricsOut, *traceOut)
}

// flushTelemetry writes the telemetry exports requested on the command
// line (no-op when telemetry is disabled).
func flushTelemetry(tel *telemetry.Telemetry, metricsOut, traceOut string) {
	tel.Trace().EndOpen()
	if err := tel.WriteFiles(metricsOut, traceOut, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
