package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// Timer handles must stay meaningful after the event they named fires,
// even though the underlying event struct is recycled into later
// schedules.

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Scope("test").At(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if timer.Active() {
		t.Fatal("fired timer should not be active")
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

// A stale handle to a fired event must not cancel the event that reused
// its pooled struct.
func TestStaleHandleDoesNotAliasReusedEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Scope("test").At(1, func() {})
	e.Run() // fires and recycles the event struct
	reusedFired := false
	reused := e.Scope("test").At(e.Now()+1, func() { reusedFired = true })
	if stale.Cancel() {
		t.Fatal("stale Cancel reported true")
	}
	if stale.Active() {
		t.Fatal("stale handle reports active after its event fired")
	}
	if !reused.Active() {
		t.Fatal("live event lost to a stale handle's Cancel")
	}
	e.Run()
	if !reusedFired {
		t.Fatal("reused event did not fire")
	}
}

// Cancelled events recycle too; their handles must go inert without
// touching the struct's next life.
func TestCancelledTimerHandleStaysInert(t *testing.T) {
	e := NewEngine()
	timer := e.Scope("test").At(5, func() { t.Fatal("cancelled event fired") })
	if !timer.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	live := e.Scope("test").At(3, func() {})
	if timer.Cancel() {
		t.Fatal("second Cancel (post-recycle) should report true only for the live handle")
	}
	if !live.Active() {
		t.Fatal("live event cancelled through a stale handle")
	}
	e.Run()
}

// RunUntil's contract is inclusive: an event scheduled exactly at the
// deadline fires, and the clock lands exactly on the deadline.
func TestRunUntilDeadlineExactlyAtNextEvent(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.Scope("test").At(10, func() { fired = append(fired, 10) })
	e.Scope("test").At(10.000001, func() { fired = append(fired, 10.000001) })
	e.RunUntil(10)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want exactly the deadline event [10]", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
}

// ObserveReplayLag must survive the instruments being detached and
// re-attached mid-replay (the monitor can be restarted against a live
// engine).
func TestObserveReplayLagDetachReattach(t *testing.T) {
	e := NewEngine()
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	e.Scope("test").At(100, func() { e.ObserveReplayLag(150) })
	e.Run()
	if got := reg.Gauge("sim_replay_lag_seconds", nil).Value(); got != 50 {
		t.Fatalf("lag = %v, want 50", got)
	}
	e.Instrument(nil)
	e.ObserveReplayLag(500) // detached: must not panic, must not write
	if got := reg.Gauge("sim_replay_lag_seconds", nil).Value(); got != 50 {
		t.Fatalf("lag after detach = %v, want unchanged 50", got)
	}
	reg2 := telemetry.NewRegistry()
	e.Instrument(reg2)
	e.Scope("test").At(e.Now()+20, func() { e.ObserveReplayLag(e.Now() + 5) })
	e.Run()
	if got := reg2.Gauge("sim_replay_lag_seconds", nil).Value(); got != 5 {
		t.Fatalf("lag after re-attach = %v, want 5", got)
	}
}

// The free list makes the steady-state event path allocation-free: after
// warm-up, schedule+fire of a pooled event costs zero allocations beyond
// whatever closure the caller builds.
func TestEventPoolSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Scope("test").At(e.Now(), nop)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Scope("test").At(e.Now(), nop)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// probeRecorder captures the probe callbacks for label assertions.
type probeRecorder struct {
	scheduled []string
	fired     []string
	cancelled []string
	dwell     map[string]float64
	wall      time.Duration
}

func (p *probeRecorder) EventScheduled(label string, now, when float64, pending int) {
	p.scheduled = append(p.scheduled, label)
}

func (p *probeRecorder) EventFired(label string, born, when float64, wall time.Duration, pending int) {
	p.fired = append(p.fired, label)
	if p.dwell == nil {
		p.dwell = map[string]float64{}
	}
	p.dwell[label] = when - born
	p.wall += wall
}

func (p *probeRecorder) EventCancelled(label string, born, when, now float64, pending int) {
	p.cancelled = append(p.cancelled, label)
}

func TestScopeLabelsReachProbe(t *testing.T) {
	e := NewEngine()
	rec := &probeRecorder{}
	e.SetProbe(rec)
	ps := e.Scope("ps")
	wf := e.Scope("workflow")
	ps.At(10, func() {})
	wf.After(25, func() {})
	e.Scope("").After(5, func() {}) // an empty name: untagged
	doomed := ps.At(30, func() {})
	doomed.Cancel()
	e.Run()

	wantScheduled := []string{"ps", "workflow", Untagged, "ps"}
	if len(rec.scheduled) != len(wantScheduled) {
		t.Fatalf("scheduled labels = %v, want %v", rec.scheduled, wantScheduled)
	}
	for i := range wantScheduled {
		if rec.scheduled[i] != wantScheduled[i] {
			t.Fatalf("scheduled labels = %v, want %v", rec.scheduled, wantScheduled)
		}
	}
	wantFired := []string{Untagged, "ps", "workflow"}
	if len(rec.fired) != len(wantFired) {
		t.Fatalf("fired labels = %v, want %v", rec.fired, wantFired)
	}
	for i := range wantFired {
		if rec.fired[i] != wantFired[i] {
			t.Fatalf("fired labels = %v, want %v", rec.fired, wantFired)
		}
	}
	if len(rec.cancelled) != 1 || rec.cancelled[0] != "ps" {
		t.Fatalf("cancelled labels = %v, want [ps]", rec.cancelled)
	}
	if got := rec.dwell["workflow"]; got != 25 {
		t.Fatalf("workflow dwell = %v, want 25 (schedule→fire lag)", got)
	}
}

// Detaching the probe stops observation without disturbing the queue.
func TestSetProbeNilDetaches(t *testing.T) {
	e := NewEngine()
	rec := &probeRecorder{}
	e.SetProbe(rec)
	e.Scope("a").At(1, func() {})
	e.SetProbe(nil)
	e.Scope("a").At(2, func() {})
	e.Run()
	if len(rec.scheduled) != 1 {
		t.Fatalf("scheduled after detach = %v, want 1 entry", rec.scheduled)
	}
	if len(rec.fired) != 0 {
		t.Fatalf("fired after detach = %v, want none", rec.fired)
	}
	if e.EventsFired() != 2 {
		t.Fatalf("EventsFired = %d, want 2", e.EventsFired())
	}
}
