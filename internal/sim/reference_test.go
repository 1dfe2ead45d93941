package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is one pending event in the reference queue.
type refEvent struct {
	when float64
	seq  int64
	id   int
}

// refCompare orders events last-to-fire first: by (when, seq),
// descending.
func refCompare(a, b refEvent) int {
	if c := cmp.Compare(b.when, a.when); c != 0 {
		return c
	}
	return cmp.Compare(b.seq, a.seq)
}

// refQueue is the kernel's ordering contract written as plainly as
// possible: a slice kept sorted by (when, seq), descending, so the next
// event to fire is the last one and most inserts (near-term events) move
// few entries. key and live, indexed by event id, find an event without
// a scan.
type refQueue struct {
	pending []refEvent
	seq     int64
	key     []refEvent
	live    []bool
}

// add queues event id, which must be the next id in sequence.
func (q *refQueue) add(when float64, id int) {
	q.seq++
	ev := refEvent{when: when, seq: q.seq, id: id}
	i, _ := slices.BinarySearchFunc(q.pending, ev, refCompare)
	q.pending = slices.Insert(q.pending, i, ev)
	q.key = append(q.key, ev)
	q.live = append(q.live, true)
}

// next returns the first event in (when, seq) order; the queue must not
// be empty.
func (q *refQueue) next() refEvent { return q.pending[len(q.pending)-1] }

// pop removes the first event in (when, seq) order.
func (q *refQueue) pop() refEvent {
	ev := q.next()
	q.pending = q.pending[:len(q.pending)-1]
	q.live[ev.id] = false
	return ev
}

// remove drops the event with the given id, reporting whether it was
// pending.
func (q *refQueue) remove(id int) bool {
	if !q.live[id] {
		return false
	}
	i, _ := slices.BinarySearchFunc(q.pending, q.key[id], refCompare)
	q.pending = slices.Delete(q.pending, i, i+1)
	q.live[id] = false
	return true
}

// pendingProbe records the queue depth the engine reports to a probe.
type pendingProbe struct{ scheduled, fired, cancelled []int }

func (p *pendingProbe) EventScheduled(_ string, _, _ float64, pending int) {
	p.scheduled = append(p.scheduled, pending)
}

func (p *pendingProbe) EventFired(_ string, _, _ float64, _ time.Duration, pending int) {
	p.fired = append(p.fired, pending)
}

func (p *pendingProbe) EventCancelled(_ string, _, _, _ float64, pending int) {
	p.cancelled = append(p.cancelled, pending)
}

// TestRandomScheduleCancelMatchesReference drives the kernel with seeded,
// interleaved At/After/Cancel/RunUntil sequences — queues thousands
// deep, times on a coarse grid so many events share an instant, handlers
// that schedule and cancel — and checks every fire against a sorted-slice
// reference keyed by (when, seq): which event fires, at what time, and
// the depth reported to a probe. After every operation it checks
// Pending() and the Active state of the handles the operation touched,
// plus a random sample of the others; after a RunUntil, every handle it
// fired; and every handle after each 256th RunUntil and at the end.
func TestRandomScheduleCancelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkAgainstReference(t, seed) })
	}
}

func checkAgainstReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var probe *pendingProbe
	if seed%2 == 0 {
		probe = &pendingProbe{}
		e.SetProbe(probe)
	}
	s := e.Scope("ref")
	ref := &refQueue{}
	var timers []Timer
	var wantScheduled, wantFired, wantCancelled []int
	var fired []int // ids fired by the current RunUntil
	failed := false
	fail := func(format string, args ...any) {
		if !failed {
			t.Errorf(format, args...)
			failed = true
		}
	}

	// delay draws from a coarse grid: many events land on one instant,
	// some exactly at Now, a few far in the future.
	delay := func() float64 {
		switch r := rng.Intn(10); {
		case r == 0:
			return 0
		case r < 8:
			return float64(rng.Intn(40)) / 2
		default:
			return 1000 + float64(rng.Intn(200))
		}
	}
	checkActive := func(id int) {
		if got, want := timers[id].Active(), ref.live[id]; got != want {
			fail("event %d: Active() = %v, reference pending = %v", id, got, want)
		}
	}
	checkState := func(touched ...int) {
		if got, want := e.Pending(), len(ref.pending); got != want {
			fail("Pending() = %d, reference holds %d", got, want)
		}
		for _, id := range touched {
			checkActive(id)
		}
		for i := 0; i < 8 && len(timers) > 0; i++ {
			checkActive(rng.Intn(len(timers)))
		}
	}

	var schedule func(when float64, after bool) int
	cancel := func(id int) {
		want := ref.remove(id)
		if want {
			wantCancelled = append(wantCancelled, len(ref.pending))
		}
		if got := timers[id].Cancel(); got != want {
			fail("Cancel(event %d) = %v, reference pending = %v", id, got, want)
		}
	}
	handler := func(id int) func() {
		return func() {
			if len(ref.pending) == 0 {
				fail("event %d fired with the reference queue empty", id)
				return
			}
			next := ref.pop()
			if next.id != id || e.Now() != next.when {
				fail("fired event %d at %v, reference fires event %d at %v", id, e.Now(), next.id, next.when)
				return
			}
			fired = append(fired, id)
			wantFired = append(wantFired, len(ref.pending))
			if timers[id].Active() {
				fail("event %d is still active inside its own handler", id)
			}
			// Handlers schedule (possibly at Now) and cancel, as ps and
			// the workflow do: fewer than one child per fire on average,
			// so a run always drains.
			for n := rng.Intn(8) / 3; n > 0; n-- {
				if rng.Intn(3) == 0 {
					schedule(e.Now(), false)
				} else {
					schedule(delay(), true)
				}
			}
			if rng.Intn(8) == 0 && len(timers) > 0 {
				cancel(rng.Intn(len(timers)))
			}
		}
	}
	// schedule queues a new event at x, or x after Now when after is set.
	schedule = func(x float64, after bool) int {
		id := len(timers)
		timers = append(timers, Timer{})
		when := x
		if after {
			when = e.Now() + x
		}
		ref.add(when, id)
		wantScheduled = append(wantScheduled, len(ref.pending))
		if after {
			timers[id] = s.After(x, handler(id))
		} else {
			timers[id] = s.At(x, handler(id))
		}
		return id
	}
	runs := 0
	runUntil := func(deadline float64) {
		before := e.Now()
		fired = fired[:0]
		got := e.RunUntil(deadline)
		if len(ref.pending) > 0 && ref.next().when <= deadline {
			fail("RunUntil(%v) left event %d due at %v", deadline, ref.next().id, ref.next().when)
		}
		if want := max(before, deadline); got != want || e.Now() != want {
			fail("RunUntil(%v) returned %v with Now %v, want %v", deadline, got, e.Now(), want)
		}
		for _, id := range fired {
			checkActive(id)
		}
		if runs++; runs%256 == 0 {
			for id := range timers {
				checkActive(id)
			}
		}
	}

	// Grow the queue toward its target depth (fleet-replay runs at 8,001),
	// then drain it with fewer schedules and more cancels and runs.
	depth := 500 + rng.Intn(6500)
	growing := true
	for step := 0; !failed && step < 3*depth; step++ {
		if growing && (len(ref.pending) >= depth || step >= 2*depth) {
			growing = false
		}
		switch r := rng.Intn(20); {
		case growing && r < 17, !growing && r < 5:
			if rng.Intn(2) == 0 {
				checkState(schedule(delay(), true))
			} else {
				checkState(schedule(e.Now()+delay(), false))
			}
		case (growing && r < 18 || !growing && r < 14) && len(timers) > 0:
			id := rng.Intn(len(timers))
			cancel(id)
			checkState(id)
		default:
			runUntil(e.Now() + float64(rng.Intn(8))/2)
			checkState()
		}
	}
	if !failed {
		e.Run()
		if len(ref.pending) != 0 {
			fail("Run() returned with %d reference events pending", len(ref.pending))
		}
		checkState()
		for id := range timers {
			checkActive(id)
		}
	}
	if probe != nil && !failed {
		for _, c := range []struct {
			kind      string
			got, want []int
		}{
			{"scheduled", probe.scheduled, wantScheduled},
			{"fired", probe.fired, wantFired},
			{"cancelled", probe.cancelled, wantCancelled},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("probe saw %d %s depths, reference %d (first difference at %d)",
					len(c.got), c.kind, len(c.want), firstDiff(c.got, c.want))
			}
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
