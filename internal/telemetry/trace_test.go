package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// fakeClock is a settable sim-time source.
type fakeClock struct{ now float64 }

func (c *fakeClock) Now() float64 { return c.now }

func TestSpanHierarchy(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now)

	campaign := tr.Begin("campaign", "campaign-2005", "factory", 0)
	clk.now = 100
	day := tr.Begin("day", "day-021", "factory", campaign)
	run := tr.Begin("run", "forecast-tillamook/21", "fnode01", day)
	tr.SetArg(run, "forecast", "forecast-tillamook")
	clk.now = 500
	sim := tr.Begin("simulation", "sim:forecast-tillamook", "", run)
	if got := tr.Spans()[sim-1].Track; got != "fnode01" {
		t.Fatalf("child track = %q, want inherited fnode01", got)
	}
	clk.now = 900
	tr.End(sim)
	tr.End(run)
	tr.End(day)
	clk.now = 1000
	tr.End(campaign)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len(spans) = %d, want 4", len(spans))
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID ||
		spans[2].Parent != spans[1].ID || spans[3].Parent != spans[2].ID {
		t.Fatalf("parent chain broken: %+v", spans)
	}
	if spans[3].Start != 500 || spans[3].End != 900 {
		t.Fatalf("sim span [%v, %v], want [500, 900]", spans[3].Start, spans[3].End)
	}
	if spans[2].Args["forecast"] != "forecast-tillamook" {
		t.Fatalf("run span args = %v", spans[2].Args)
	}
	if d := spans[2].End - spans[2].Start; d != 800 {
		t.Fatalf("run duration = %v, want 800", d)
	}
}

func TestEndOpenMarksInterrupted(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now)
	s := tr.Begin("run", "r", "n", 0)
	clk.now = 50
	tr.EndOpen()
	got := tr.Spans()[0]
	if got.End != 50 || got.Args["interrupted"] != "true" {
		t.Fatalf("span = %+v", got)
	}
	// Double-end is a no-op.
	clk.now = 99
	tr.End(s)
	if tr.Spans()[0].End != 50 {
		t.Fatal("End after EndOpen moved the end time")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk.Now)
	a := tr.Begin("run", "runA", "fnode01", 0)
	clk.now = 2
	b := tr.Begin("transfer", "rsync:x", "lan", a)
	clk.now = 3
	tr.End(b)
	clk.now = 5
	tr.End(a)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}
	// 2 thread_name metadata events + 2 complete events.
	var meta, complete int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
			if e.Name != "thread_name" || e.Args["name"] == "" {
				t.Fatalf("bad metadata event %+v", e)
			}
		case "X":
			complete++
			if e.Name == "runA" && (e.Ts != 0 || e.Dur != 5e6) {
				t.Fatalf("runA event ts=%v dur=%v, want 0 and 5e6 µs", e.Ts, e.Dur)
			}
			if e.Name == "rsync:x" && (e.Ts != 2e6 || e.Dur != 1e6) {
				t.Fatalf("rsync event ts=%v dur=%v", e.Ts, e.Dur)
			}
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("events: %d metadata + %d complete, want 2 + 2", meta, complete)
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Begin("cat", "n", "track", 0)
				tr.SetArg(s, "i", "x")
				tr.End(s)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 8*200 {
		t.Fatalf("len = %d, want %d", tr.Len(), 8*200)
	}
}
