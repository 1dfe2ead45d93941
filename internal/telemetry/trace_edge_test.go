package telemetry

import (
	"reflect"
	"testing"
)

// The forensics layer reconstructs causal chains from exported spans, so
// the tracer's edge behavior — out-of-order ends, interrupted spans,
// unfinished durations — must be exact. These tests pin it down.

func TestNestedSpansEndedOutOfOrder(t *testing.T) {
	clock := 0.0
	tr := NewTracer(func() float64 { return clock })
	parent := tr.Begin("run", "r", "n1", 0)
	clock = 10
	child := tr.Begin("simulation", "s", "", parent)
	// The parent ends before its child — a crashed workflow master whose
	// simulation stream is still draining.
	clock = 50
	tr.End(parent)
	clock = 80
	tr.End(child)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	p, c := byName["r"], byName["s"]
	if p.End != 50 || c.End != 80 {
		t.Errorf("ends = %v/%v, want 50/80 (each span keeps its own end)", p.End, c.End)
	}
	if c.Parent != p.ID {
		t.Errorf("child parent = %d, want %d: out-of-order ends must not break the hierarchy", c.Parent, p.ID)
	}
	// The child inherited the parent's track at Begin time.
	if c.Track != "n1" {
		t.Errorf("child track = %q, want inherited n1", c.Track)
	}
}

func TestEndOpenMarksOnlyUnfinishedSpans(t *testing.T) {
	clock := 0.0
	tr := NewTracer(func() float64 { return clock })
	done := tr.Begin("run", "done", "n1", 0)
	clock = 100
	tr.End(done)
	open := tr.Begin("run", "open", "n1", 0)
	clock = 250
	tr.EndOpen()

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	if got := byName["done"]; got.End != 100 || got.Args["interrupted"] != "" {
		t.Errorf("finished span was rewritten by EndOpen: %+v", got)
	}
	if got := byName["open"]; got.End != 250 || got.Args["interrupted"] != "true" {
		t.Errorf("open span not stamped interrupted at 250: %+v", got)
	}

	// End after EndOpen is a no-op: the interruption time stands (the
	// span ran 100 → 250).
	clock = 400
	tr.End(open)
	if got := tr.Spans()[open-1]; got.End-got.Start != 150 {
		t.Errorf("duration after late End = %v, want 150", got.End-got.Start)
	}
}

func TestDurationOnUnfinishedSpans(t *testing.T) {
	clock := 0.0
	tr := NewTracer(func() float64 { return clock })
	s := tr.Begin("run", "r", "n1", 0)
	clock = 30
	// An unfinished span is exported with the elapsed time so far, and
	// the exported copy stays frozen at export time.
	snap := tr.Spans()[0]
	if got := snap.End - snap.Start; got != 30 {
		t.Errorf("unfinished duration = %v, want 30", got)
	}
	clock = 90
	if got := snap.End - snap.Start; got != 30 {
		t.Errorf("exported unfinished duration = %v, want frozen 30", got)
	}
	// The tracer keeps tracking the clock, then freezes the span at End.
	if got := tr.Spans()[0].End; got != 90 {
		t.Errorf("unfinished end after clock advance = %v, want 90", got)
	}
	tr.End(s)
	clock = 500
	if got := tr.Spans()[0].End; got != 90 {
		t.Errorf("finished end = %v, want 90", got)
	}
	// A nil tracer (disabled telemetry) hands out ID 0 and is inert.
	var nilTr *Tracer
	if id := nilTr.Begin("run", "r", "n1", 0); id != 0 {
		t.Errorf("nil tracer Begin = %d, want 0", id)
	}
	nilTr.End(0) // must not panic
	tr.End(0)    // ID 0 is ignored
	tr.SetArg(0, "k", "v")
	if got := tr.Spans()[0]; got.End != 90 || got.Args != nil {
		t.Errorf("ID 0 touched span 1: %+v", got)
	}
}

func TestLiveSpanArgs(t *testing.T) {
	tr := NewTracer(nil)
	s := tr.Begin("run", "r", "n1", 0)
	tr.SetArg(s, "forecast", "f")
	if got := tr.Spans()[0].Args["forecast"]; got != "f" {
		t.Errorf("Args[forecast] of an open span = %q, want f", got)
	}
	tr.EndOpen()
	// Exported args are copies: editing one leaves the trace as recorded.
	snap := tr.Spans()[0]
	if len(snap.Args) != 2 || snap.Args["forecast"] != "f" || snap.Args["interrupted"] != "true" {
		t.Fatalf("exported args = %v", snap.Args)
	}
	snap.Args["forecast"] = "edited"
	if got := tr.Spans()[0].Args["forecast"]; got != "f" {
		t.Errorf("editing an exported copy changed the trace: forecast = %q", got)
	}
}

// The tracer's own records must stay pointer-free: the garbage collector
// then never scans the trace, which keeps a campaign's tens of thousands
// of product-task spans out of every collection cycle.
func TestSpanRecordsHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(spanRec{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int64, reflect.Uint32, reflect.Float64:
		default:
			t.Errorf("spanRec.%s is a %s; the record must hold no pointers", f.Name, f.Type)
		}
	}
}
