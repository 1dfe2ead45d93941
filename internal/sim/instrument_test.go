package sim

import (
	"testing"

	"repro/internal/telemetry"
)

func TestInstrumentKernelMetrics(t *testing.T) {
	e := NewEngine()
	reg := telemetry.NewRegistry()
	e.Scope("test").At(10, func() {})
	e.Scope("test").At(20, func() { e.Scope("test").At(30, func() {}) })
	e.Instrument(reg)

	pending := reg.Gauge("sim_pending_events", nil)
	if got := pending.Value(); got != 2 {
		t.Fatalf("sim_pending_events = %v immediately after Instrument, want 2", got)
	}
	e.Run()
	if got := reg.Counter("sim_events_fired_total", nil).Value(); got != 3 {
		t.Errorf("sim_events_fired_total = %v, want 3", got)
	}
	if got := reg.Gauge("sim_clock_seconds", nil).Value(); got != 30 {
		t.Errorf("sim_clock_seconds = %v, want 30", got)
	}
	if got := pending.Value(); got != 0 {
		t.Errorf("sim_pending_events = %v after drain, want 0", got)
	}
}

// Replay lag is the deficit between where a paced replay should be and
// where the clock is: positive when the engine trails, negative when it
// leads.
func TestObserveReplayLag(t *testing.T) {
	e := NewEngine()
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	e.Scope("test").At(100, func() { e.ObserveReplayLag(175) })
	e.Run()
	if got := reg.Gauge("sim_replay_lag_seconds", nil).Value(); got != 75 {
		t.Errorf("sim_replay_lag_seconds = %v, want 75", got)
	}
}

// Instrument(nil) detaches the handles; the event path and lag observer
// must stay safe without a registry.
func TestInstrumentDetach(t *testing.T) {
	e := NewEngine()
	e.Instrument(telemetry.NewRegistry())
	e.Instrument(nil)
	e.Scope("test").At(5, func() { e.ObserveReplayLag(10) })
	e.Run()
	if e.EventsFired() != 1 {
		t.Errorf("EventsFired = %d, want 1", e.EventsFired())
	}
}

// The kernel gauges publish when RunUntil returns: they then read the
// clock, the queue length and the events fired since Instrument, also
// when Instrument came after some events had fired.
func TestKernelGaugesPublishAtReturn(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 6; i++ {
		e.Scope("test").At(float64(10*i), func() { e.Scope("test").At(e.Now()+100, func() {}) })
	}
	e.RunUntil(25) // two events fire before the instruments attach
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	events := reg.Counter("sim_events_fired_total", nil)
	clock := reg.Gauge("sim_clock_seconds", nil)
	pending := reg.Gauge("sim_pending_events", nil)
	check := func(when string, fired float64) {
		t.Helper()
		if events.Value() != fired || clock.Value() != e.Now() || pending.Value() != float64(e.Pending()) {
			t.Fatalf("%s: events %v clock %v pending %v, want %v, %v, %d",
				when, events.Value(), clock.Value(), pending.Value(), fired, e.Now(), e.Pending())
		}
	}
	check("at Instrument", 0)
	e.RunUntil(45)
	check("after RunUntil(45)", 2)
	e.RunUntil(50)
	check("after RunUntil(50)", 3)
	e.RunUntil(1000)
	check("after the drain", 10)
}

// An instrumented RunUntil that fires one event writes its gauges once,
// outside the handler, and allocates nothing.
func TestInstrumentedStepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	e.Instrument(telemetry.NewRegistry())
	s := e.Scope("tick")
	var tick func()
	tick = func() { s.After(1, tick) }
	s.After(1, tick)
	e.RunUntil(1) // warm the free list
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + 1) }); n != 0 {
		t.Fatalf("instrumented RunUntil allocates %.1f objects, want 0", n)
	}
}
