// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine keeps a virtual clock measured in seconds (float64) and a
// priority queue of scheduled events. Events firing at the same instant are
// delivered in the order they were scheduled, which makes every simulation
// in this repository bit-reproducible: there is no wall-clock time, no
// goroutine scheduling, and no randomness inside the kernel.
//
// Scheduling is labeled: the engine schedules only through a Scope
// (Engine.Scope), so a kernel profiler (internal/engineprof, attached via
// SetProbe) can attribute event counts, handler wall-clock cost, and
// schedule→fire dwell to the subsystem that created each event. A scope
// with an empty name is tagged "untagged" — a labeled campaign has none.
//
// Event structures are pooled on a free list: a fired or cancelled event
// is recycled into the next schedule call, so a steady-state simulation
// allocates nothing per event beyond the caller's closure. Timer handles
// stay safe across recycling through a generation counter — a handle to a
// fired event never aliases the event's next life.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Untagged is the label of a scope created with an empty name.
const Untagged = "untagged"

// Probe observes the kernel's event lifecycle. Attach one with SetProbe;
// the engine calls it synchronously on the simulation goroutine, so
// implementations decide their own locking if they are read concurrently.
// With no probe attached the event path pays a single nil check.
type Probe interface {
	// EventScheduled fires after an event enters the queue. pending is
	// the queue depth including the new event.
	EventScheduled(label string, now, when float64, pending int)
	// EventFired fires after an event's handler returns. born is the sim
	// time the event was scheduled (when-born = sim-time dwell), wall is
	// the handler's wall-clock cost, pending the queue depth at the
	// moment the event was popped (before the handler scheduled more).
	// Handler timing is sampled: wall is negative for fires whose
	// handler was not timed (see SetProbeSampling); counts stay exact.
	EventFired(label string, born, when float64, wall time.Duration, pending int)
	// EventCancelled fires after a pending event is removed by Cancel.
	EventCancelled(label string, born, when, now float64, pending int)
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine. Every method belongs to the goroutine that runs the
// simulation, except Now, which any goroutine may call.
type Engine struct {
	now     float64
	clock   atomic.Uint64 // now's bits, published for readers off the engine goroutine
	seq     int64
	queue   eventQueue
	free    []*event // recycled events; see Timer for the aliasing guard
	running bool

	fired     int64 // events delivered since creation
	published int64 // fired as last added to mEvents

	probe Probe
	// probeEvery samples handler wall-clock timing: every probeEvery-th
	// fire is timed (reading the clock twice per event costs more than
	// the rest of the attached path on machines with a slow clocksource,
	// so exact per-event timing would blow the profiler's overhead
	// budget). probeTick counts down to the next timed fire.
	probeEvery int
	probeTick  int

	// Optional telemetry handles, resolved once by Instrument. No event
	// writes them: publish does, when Run or RunUntil returns.
	mEvents  *telemetry.Counter
	mClock   *telemetry.Gauge
	mPending *telemetry.Gauge
	mLag     *telemetry.Gauge
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds. It is safe to call
// from any goroutine: a control-room handler reading it while the
// simulation runs sees the time of the event being handled.
func (e *Engine) Now() float64 { return math.Float64frombits(e.clock.Load()) }

// setNow advances the clock and publishes it to Now's readers.
func (e *Engine) setNow(t float64) {
	e.now = t
	e.clock.Store(math.Float64bits(t))
}

// EventsFired returns the number of events delivered since creation.
func (e *Engine) EventsFired() int64 { return e.fired }

// DefaultProbeSampleEvery is the default handler-timing sampling
// interval: one timed handler per this many fires.
const DefaultProbeSampleEvery = 16

// SetProbe attaches a kernel probe (nil detaches). The probe sees every
// schedule, fire, and cancel from this point on. Handler wall-clock
// timing is only measured while a probe is attached, and only on a
// sampled subset of fires (DefaultProbeSampleEvery; tune with
// SetProbeSampling) — untimed fires report a negative wall duration.
func (e *Engine) SetProbe(p Probe) {
	e.probe = p
	if e.probeEvery == 0 {
		e.probeEvery = DefaultProbeSampleEvery
	}
	e.probeTick = 0 // the next fire is timed
}

// SetProbeSampling times one handler per every n fires (n >= 1; 1 times
// every handler, at a measurable cost on machines where reading the
// clock is slow). Sampling is unbiased across labels: each label's
// handlers are timed in proportion to how often they fire.
func (e *Engine) SetProbeSampling(n int) {
	if n < 1 {
		n = 1
	}
	e.probeEvery = n
	e.probeTick = 0
}

// Instrument registers the engine's kernel metrics with a registry:
// sim_events_fired_total counts delivered events, sim_clock_seconds
// tracks the virtual clock, sim_pending_events gauges the event-queue
// length (a growing queue while the clock stalls is the signature of an
// engine pile-up), and sim_replay_lag_seconds (fed by ObserveReplayLag)
// shows how far a paced replay trails its wall-clock schedule. The first
// three publish when Run or RunUntil returns; the counter counts
// from this call. A nil registry detaches the instruments.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		e.mEvents, e.mClock, e.mPending, e.mLag = nil, nil, nil, nil
		return
	}
	reg.Describe("sim_events_fired_total", "Discrete events delivered by the simulation kernel.")
	reg.Describe("sim_clock_seconds", "Current virtual time of the simulation clock.")
	reg.Describe("sim_pending_events", "Events waiting in the simulation queue.")
	reg.Describe("sim_replay_lag_seconds", "Sim-time deficit of a paced replay against its wall-clock schedule.")
	e.mEvents = reg.Counter("sim_events_fired_total", nil)
	e.mClock = reg.Gauge("sim_clock_seconds", nil)
	e.mPending = reg.Gauge("sim_pending_events", nil)
	e.mLag = reg.Gauge("sim_replay_lag_seconds", nil)
	e.published = e.fired
	e.publish()
}

// publish brings the kernel instruments up to date.
func (e *Engine) publish() {
	e.mEvents.Add(float64(e.fired - e.published))
	e.published = e.fired
	e.mClock.Set(e.now)
	e.mPending.Set(float64(len(e.queue)))
}

// ObserveReplayLag records how far the virtual clock trails a paced
// replay's schedule: expected is the sim time the replay should have
// reached by now. Positive lag means the engine cannot keep up with the
// requested replay rate — a stall the dashboard makes visible.
func (e *Engine) ObserveReplayLag(expected float64) {
	e.mLag.Set(expected - e.now)
}

// event is the pooled kernel record behind a Timer handle. After it fires
// or is cancelled its generation is bumped and the struct returns to the
// engine's free list for the next schedule call. Its ordering key lives in
// its queue entry, not here.
type event struct {
	born  float64 // sim time the event was scheduled
	index int     // index in the queue, -1 once fired or cancelled
	gen   uint64
	label string
	fn    func()
	owner *Engine
}

// Timer is a handle to a scheduled event. The zero Timer is inert: Active
// reports false and Cancel is a no-op.
//
// Handles stay valid after the event fires or is cancelled even though
// the underlying event struct is recycled into later schedules: the
// handle carries the event's generation, so Cancel/Active on a stale
// handle see the generation mismatch and report false instead of
// touching the event's next life.
type Timer struct {
	ev  *event
	gen uint64
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Cancel removes the timer from the event queue, reporting whether it was
// still pending. It is safe on a fired, cancelled, or zero Timer: those
// report false and touch nothing (a fired event's struct may already be
// serving a different, live event).
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.index < 0 {
		return false
	}
	e := ev.owner
	when := e.queue.remove(ev.index)
	if e.probe != nil {
		e.probe.EventCancelled(ev.label, ev.born, when, e.now, len(e.queue))
	}
	e.recycle(ev)
	return true
}

// recycle retires an event (fired or cancelled) onto the free list. The
// generation bump invalidates every outstanding Timer handle to this
// life of the struct.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.label = ""
	ev.index = -1
	e.free = append(e.free, ev)
}

// Scope is a labeled scheduler over an engine. Every subsystem that
// schedules events creates one (Engine.Scope) and schedules through it,
// so the kernel profiler can attribute cost per subsystem. The zero
// Scope is not usable. Scopes are values: copying is free, and any number
// may share a label.
type Scope struct {
	e     *Engine
	label string
}

// Scope returns a labeled scheduler. An empty name falls back to
// Untagged.
func (e *Engine) Scope(name string) Scope {
	if name == "" {
		name = Untagged
	}
	return Scope{e: e, label: name}
}

// At schedules fn to run at absolute virtual time when, tagged with the
// scope's label. Scheduling in the past (before Now) panics, because it
// would silently corrupt causality. Scheduling exactly at Now is allowed
// and fires after all currently queued events for this instant that were
// scheduled earlier.
func (s Scope) At(when float64, fn func()) Timer {
	return s.e.schedule(s.label, when, fn)
}

// After schedules fn d seconds from now, tagged with the scope's label.
// Negative d panics.
func (s Scope) After(d float64, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: After called with negative delay %v", d))
	}
	return s.e.schedule(s.label, s.e.now+d, fn)
}

// schedule enqueues one event, reusing a recycled event struct when the
// free list has one.
func (e *Engine) schedule(label string, when float64, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if math.IsNaN(when) {
		panic("sim: At called with NaN time")
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", when, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{owner: e}
	}
	ev.born, ev.label, ev.fn = e.now, label, fn
	e.queue.push(entry{when: when, seq: e.seq, ev: ev})
	if e.probe != nil {
		e.probe.EventScheduled(label, e.now, when, len(e.queue))
	}
	return Timer{ev: ev, gen: ev.gen}
}

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// step fires the next event, if any, without publishing.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	when, ev := e.queue.pop()
	e.setNow(when)
	e.fired++
	fn, label, born := ev.fn, ev.label, ev.born
	// Recycle before running the handler: the handler's own scheduling
	// reuses this struct while it is still hot in cache, and the
	// generation bump has already invalidated stale handles.
	e.recycle(ev)
	if p := e.probe; p != nil {
		pending := len(e.queue)
		wall := time.Duration(-1)
		if e.probeTick <= 0 {
			e.probeTick = e.probeEvery
			t0 := time.Now()
			fn()
			wall = time.Since(t0)
		} else {
			fn()
		}
		e.probeTick--
		p.EventFired(label, born, when, wall, pending)
	} else {
		fn()
	}
	return true
}

// Run fires events until the queue is empty. It returns the final
// virtual time.
func (e *Engine) Run() float64 {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.step() {
	}
	e.publish()
	return e.now
}

// RunUntil fires events with time <= deadline, then advances the clock to
// deadline (if it is later than the last event) and returns. Events after
// the deadline remain queued.
func (e *Engine) RunUntil(deadline float64) float64 {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.step()
	}
	if deadline > e.now {
		e.setNow(deadline)
	}
	e.publish()
	return e.now
}

// entry is one queued event: its ordering key inline beside the event, so
// the heap compares without dereferencing an event.
type entry struct {
	when float64
	seq  int64
	ev   *event
}

// before reports whether a fires before b: earlier time first, then
// schedule order. seq is unique, so no two entries tie.
func (a *entry) before(b *entry) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of entries ordered by (when, seq): the
// children of i are 4i+1 … 4i+4. Each move writes the entry's index into
// its event, so Timer.Cancel removes an event where it sits.
type eventQueue []entry

// push adds an entry.
func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// pop removes the first entry, returning its time and event; the caller
// recycles the event, which marks it unqueued.
func (q *eventQueue) pop() (float64, *event) {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	*q = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	return top.when, top.ev
}

// remove removes the entry at i, returning its time; the caller recycles
// its event, as after pop.
func (q *eventQueue) remove(i int) float64 {
	h := *q
	x := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	*q = h[:n]
	if i < n {
		if i > 0 && last.before(&h[(i-1)/4]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return x.when
}

// up places x at hole i or above it.
func (q eventQueue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// down places x at hole i or below it.
func (q eventQueue) down(i int, x entry) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = x
	x.ev.index = i
}
