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
	parent := tr.Begin("run", "r", "n1", nil)
	clock = 10
	child := tr.Begin("simulation", "s", "", parent)
	// The parent ends before its child — a crashed workflow master whose
	// simulation stream is still draining.
	clock = 50
	parent.EndSpan()
	clock = 80
	child.EndSpan()

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
	done := tr.Begin("run", "done", "n1", nil)
	clock = 100
	done.EndSpan()
	open := tr.Begin("run", "open", "n1", nil)
	clock = 250
	tr.EndOpen()

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	if got := byName["done"]; got.End != 100 || got.Arg("interrupted") != "" {
		t.Errorf("finished span was rewritten by EndOpen: %+v", got)
	}
	if got := byName["open"]; got.End != 250 || got.Arg("interrupted") != "true" {
		t.Errorf("open span not stamped interrupted at 250: %+v", got)
	}

	// EndSpan after EndOpen is a no-op: the interruption time stands
	// (the span ran 100 → 250).
	clock = 400
	open.EndSpan()
	if got := open.Duration(); got != 150 {
		t.Errorf("duration after late EndSpan = %v, want 150", got)
	}
}

func TestDurationOnUnfinishedSpans(t *testing.T) {
	clock := 0.0
	tr := NewTracer(func() float64 { return clock })
	s := tr.Begin("run", "r", "n1", nil)
	clock = 30
	// A live unfinished span reports elapsed time so far.
	if got := s.Duration(); got != 30 {
		t.Errorf("live unfinished duration = %v, want 30", got)
	}
	if s.Finished() {
		t.Error("span reports finished before EndSpan")
	}
	// A detached snapshot freezes the unfinished span at export time.
	snap := tr.Spans()[0]
	clock = 90
	if got := snap.Duration(); got != 30 {
		t.Errorf("detached unfinished duration = %v, want frozen 30", got)
	}
	if snap.Finished() {
		t.Error("detached copy of an unfinished span claims to be finished")
	}
	// The live span keeps tracking the clock, then freezes at EndSpan.
	if got := s.Duration(); got != 90 {
		t.Errorf("live duration after clock advance = %v, want 90", got)
	}
	s.EndSpan()
	clock = 500
	if got := s.Duration(); got != 90 {
		t.Errorf("finished duration = %v, want 90", got)
	}
	if !s.Finished() {
		t.Error("span not finished after EndSpan")
	}
	// Nil spans (disabled telemetry) are inert.
	var nilSpan *Span
	if nilSpan.Duration() != 0 || nilSpan.Finished() {
		t.Error("nil span must report zero duration, not finished")
	}
	nilSpan.EndSpan() // must not panic
}

func TestLiveSpanArgs(t *testing.T) {
	tr := NewTracer(nil)
	s := tr.Begin("run", "r", "n1", nil)
	s.SetArg("forecast", "f")
	if got := s.Arg("forecast"); got != "f" {
		t.Errorf("live Arg(forecast) = %q, want f", got)
	}
	tr.EndOpen()
	if got := s.Arg("interrupted"); got != "true" {
		t.Errorf("live Arg(interrupted) = %q after EndOpen, want true", got)
	}
	// Exported args are copies: editing one leaves the trace as recorded.
	snap := tr.Spans()[0]
	if len(snap.Args) != 2 || snap.Args["forecast"] != "f" {
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
