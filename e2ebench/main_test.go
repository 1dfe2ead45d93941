package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tiny(workload string, trace bool) options {
	return options{workload: workload, seed: 7, size: "tiny", trace: trace}
}

// TestTinyRunsPrintEveryMetric runs every workload BENCHMARK.json names,
// untraced and traced, at the tiny size: each must pass all its checks
// and print every metric BENCHMARK.json names for its mode, with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d checks failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedAnswerIsCounted proves the checks are live: one altered
// answer per workload (a serving row, a fired count, a SQL row) must show
// up as a failed check.
func TestTamperedAnswerIsCounted(t *testing.T) {
	for name := range workloads {
		o := tiny(name, false)
		o.tamper = true
		res, err := run(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: tampered answer went unnoticed (%d of %d checks failed)", name, res.Failed, res.Attempted)
		}
	}
}

// TestSameSeedSameDigest runs each workload's first iteration from two
// independent preparations of one seed: the digests must match. Another
// seed must change the inputs, and so the digest.
func TestSameSeedSameDigest(t *testing.T) {
	first := func(o options) uint64 {
		iterate, err := workloads[o.workload](o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := iterate(false)
		if err != nil {
			t.Fatal(err)
		}
		return r.digest
	}
	for name := range workloads {
		a, b := first(tiny(name, false)), first(tiny(name, false))
		if a != b {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", name, a, b)
		}
		o := tiny(name, false)
		o.seed = 8
		if c := first(o); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", name, a)
		}
	}
}
