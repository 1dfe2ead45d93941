# Build and verification entry points. `make check` is the full gate:
# formatting, the tier-1 suite (ROADMAP.md), static analysis and the
# race detector over every package, and the end-to-end benchmark's
# build and self-test.

GO ?= go

.PHONY: all build test check fmt vet race e2ebench bench clean

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

# Experiment benchmarks plus the machine-readable reports uploaded as CI
# artifacts: the harvest pipeline (BENCH_harvest.json), the usage
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
# crowd, gating on zero made-to-stock deadlines displaced).
bench:
	$(GO) test -bench . -benchtime 1x -run xxx . ./internal/core ./internal/engineprof ./internal/forensics ./internal/harvest ./internal/serving ./internal/spc ./internal/usage
	BENCH_OUT=$(CURDIR)/BENCH_harvest.json $(GO) test -run TestEmitBenchReport -v ./internal/harvest
	BENCH_OUT=$(CURDIR)/BENCH_usage.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/usage
	BENCH_OUT=$(CURDIR)/BENCH_planner.json $(GO) test -count=1 -run TestEmitPlannerBenchReport -v ./internal/core
	BENCH_OUT=$(CURDIR)/BENCH_forensics.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/forensics
	BENCH_OUT=$(CURDIR)/BENCH_spc.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/spc
	BENCH_OUT=$(CURDIR)/BENCH_sim.json BENCH_BASELINE=$(CURDIR)/BENCH_sim_baseline.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/engineprof
	BENCH_OUT=$(CURDIR)/BENCH_serving.json $(GO) test -count=1 -run TestEmitBenchReport -v ./internal/serving

clean:
	$(GO) clean ./...
