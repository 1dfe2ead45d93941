# Build and verification entry points. `make check` is the full gate:
# formatting, the tier-1 suite (ROADMAP.md), static analysis and the
# race detector over every package, and the end-to-end benchmark's
# build and self-test.

GO ?= go

.PHONY: all build test check fmt vet race e2ebench fuzz bench loc clean

all: build

build:
	$(GO) build ./...

# Tier-1: what every change must keep green.
test: build
	$(GO) test ./...

# gofmt must have nothing to rewrite (the benchmark's build directory
# is not source).
fmt:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The telemetry registry and tracer accept concurrent writers; the race
# detector is the test that proves it.
race:
	$(GO) test -race ./...

# The end-to-end benchmark (e2ebench/) is its own module built on the
# internal packages: vetting and self-testing it here makes an internal
# API change that breaks the benchmark fail this gate, not the
# benchmark run.
e2ebench:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

check: fmt test vet race e2ebench

# Native fuzzing of the readers of untrusted text (run logs, the statsdb
# SQL subset, factory config files, the harvest journal and snapshot),
# of the run-log parser and statsdb's answers against their reference
# implementations, of statsdb's batch append against row-by-row inserts,
# of statsdb's typed-table codec against the reflection codec it
# replaced (FuzzTypedTableMatchesReference), of the vfs path lookup's
# in-place walk against path.Clean, of the vfs write feed against a
# whole-tree walk (FuzzWalkSinceMatchesWalk), and of the planner's Pack
# against its kept by-name reference (FuzzPackMatchesReference), 60 s
# each. Their seed inputs also run in the tier-1 suite. A crasher is
# written under the package's testdata/fuzz/ and lands as a regression
# test with its fix.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 60s ./internal/logs
	$(GO) test -run '^$$' -fuzz '^FuzzParseMatchesReference$$' -fuzztime 60s ./internal/logs
	$(GO) test -run '^$$' -fuzz '^FuzzQuery$$' -fuzztime 60s ./internal/statsdb
	$(GO) test -run '^$$' -fuzz '^FuzzQueryMatchesReference$$' -fuzztime 60s ./internal/statsdb
	$(GO) test -run '^$$' -fuzz '^FuzzAppendMatchesInsert$$' -fuzztime 60s ./internal/statsdb
	$(GO) test -run '^$$' -fuzz '^FuzzTypedTableMatchesReference$$' -fuzztime 60s ./internal/statsdb
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 60s ./internal/config
	$(GO) test -run '^$$' -fuzz '^FuzzLoadJournal$$' -fuzztime 60s ./internal/harvest
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 60s ./internal/harvest
	$(GO) test -run '^$$' -fuzz '^FuzzLookup$$' -fuzztime 60s ./internal/vfs
	$(GO) test -run '^$$' -fuzz '^FuzzWalkSinceMatchesWalk$$' -fuzztime 60s ./internal/vfs
	$(GO) test -run '^$$' -fuzz '^FuzzPackMatchesReference$$' -fuzztime 60s ./internal/core

# Experiment benchmarks plus the machine-readable reports uploaded as CI
# artifacts: the harvest pipeline (BENCH_harvest.json: cold and warm
# passes, and one daily pass of 2,000 new logs over 60,000), the usage
# sampler's overhead budget (BENCH_usage.json, < 5% slowdown on the
# standard fig8 campaign), the planner's incremental-prediction
# speedup (BENCH_planner.json, ≥ 5× over full repredict on the
# 200-node/2000-run drop loop, with an incremental-vs-full equivalence
# gate), the forensics replay overhead (BENCH_forensics.json, < 5%
# on a 200-node / 2000-run campaign replayed with and without blame
# analysis, ABBA-paired medians), the SPC observatory's overhead
# budget (BENCH_spc.json, < 5% CPU on the same replay streamed with and
# without control charts, min of interleaved rusage samples), and the
# simulation kernel's events/sec trajectory (BENCH_sim.json: replay
# throughput with the kernel profiler detached and attached, < 5%
# profiler overhead, and a ≥ 80%-of-baseline throughput gate against
# the committed BENCH_sim_baseline.json), and the public serving edge's
# storm scenario (BENCH_serving.json: ≥ 1M simulated user requests
# through the cache/coalesce/shed path with a late forecast and a flash
# crowd, gating on zero made-to-stock deadlines displaced). The first
# line runs every benchmark once so they keep building, among them the
# per-layer ones at an operator planning session's size (estimate replay,
# a worst-fit-decreasing Pack (BenchmarkPack), a full-reshuffle
# reschedule after a node failure (BenchmarkRescheduleFullReshuffle),
# query shapes, a daily harvest pass, Harvester.Records, the run-tree
# walk) and at an observed campaign's close-out (LoadSpans, Analyze and
# LoadSamples over a fig-8 campaign's trace and timeline) that profile
# one layer with -cpuprofile in its own package.
bench:
	$(GO) test -bench . -benchtime 1x -run xxx . ./internal/core ./internal/engineprof ./internal/forensics ./internal/harvest ./internal/serving ./internal/sim ./internal/spc ./internal/statsdb ./internal/usage ./internal/vfs
	BENCH_OUT=$(CURDIR)/BENCH_harvest.json $(GO) test -run TestEmitBenchReport -v ./internal/harvest
	BENCH_OUT=$(CURDIR)/BENCH_usage.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/usage
	BENCH_OUT=$(CURDIR)/BENCH_planner.json $(GO) test -count=1 -run TestEmitPlannerBenchReport -v ./internal/core
	BENCH_OUT=$(CURDIR)/BENCH_forensics.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/forensics
	BENCH_OUT=$(CURDIR)/BENCH_spc.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/spc
	BENCH_OUT=$(CURDIR)/BENCH_sim.json BENCH_BASELINE=$(CURDIR)/BENCH_sim_baseline.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/engineprof
	BENCH_OUT=$(CURDIR)/BENCH_serving.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/serving

# Non-test Go lines per package, then their total: the size every change
# reports its delta against. The benchmark module (e2ebench/) and its
# build directory are not part of ./... and are not counted.
loc:
	@$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}{{end}}' ./... | \
	while read pkg files; do printf '%6d  %s\n' $$(cat $$files | wc -l) $$pkg; done | \
	awk '{ print; sum += $$1 } END { printf "%6d  total\n", sum }'

clean:
	$(GO) clean ./...
