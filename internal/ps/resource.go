// Package ps implements a fair-share ("processor sharing") resource on top
// of the discrete-event engine.
//
// A Resource has a total capacity C (work units per second) and a per-task
// cap M, both set per resource. When k tasks are active, each progresses
// at rate min(M, C/k).
// This single abstraction models both the paper's CPU-sharing assumption
// (§4.1: k serial forecast runs on a node with c CPUs of speed s each
// receive s·min(1, c/k) of a CPU) and a shared network link (capacity =
// bandwidth, cap = bandwidth).
//
// Whenever the set of active tasks changes, the resource settles every
// task's remaining work exactly (no numerical drift beyond float64
// arithmetic) and re-times its one completion event: every task's rate is
// fixed between changes, so only the earliest completion needs an event.
package ps

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Resource is a fair-share resource. Create one with NewResource.
type Resource struct {
	eng      *sim.Engine
	sched    sim.Scope // completion events, labeled "ps" for the kernel profiler
	capacity float64
	taskCap  float64
	tasks    []*Task // active tasks in submission order
	frozen   bool    // when true (resource down), tasks make no progress

	// timer is the resource's one completion event, armed for next, the
	// task due first; fire, its handler, is built once.
	timer sim.Timer
	next  *Task
	fire  func()

	// finished, when set, hears each completion by its task's label,
	// after the resource retimes and before the task's done runs.
	finished func(label string)

	// busyIntegral accumulates ∫ rate_total dt for utilization accounting.
	// totalRate caches Σ task rates, maintained by retimeAll, so settling
	// the integral is O(1) — callers like the usage sampler settle on
	// every timeline tick.
	busyIntegral float64
	lastAccount  float64
	totalRate    float64
}

// NewResource creates a fair-share resource. capacity is the aggregate rate
// (work units per second) and taskCap is the maximum rate a single task may
// consume. Both must be positive (not NaN). finished (may be nil)
// observes every completion, so an owner that reports them needs no
// closure per task.
func NewResource(eng *sim.Engine, name string, capacity, taskCap float64, finished func(label string)) *Resource {
	if !(capacity > 0 && taskCap > 0) {
		panic(fmt.Sprintf("ps: resource %q needs positive capacity (%v) and task cap (%v)", name, capacity, taskCap))
	}
	r := &Resource{
		eng:      eng,
		sched:    eng.Scope("ps"),
		capacity: capacity,
		taskCap:  taskCap,
		finished: finished,
	}
	r.fire = r.completeNext
	return r
}

// Capacity returns the aggregate capacity in work units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Active returns the number of tasks currently sharing the resource.
func (r *Resource) Active() int { return len(r.tasks) }

// waterFill computes the max-min fair allocation of the resource's
// capacity among its tasks, in submission order: each takes
// min(cap, remaining/left). The running remainder, rather than the
// closed form min(cap, C/k), fixes how the rates round.
func (r *Resource) waterFill() {
	if r.frozen {
		for _, t := range r.tasks {
			t.rate = 0
		}
		return
	}
	remaining := r.capacity
	for i, t := range r.tasks {
		share := remaining / float64(len(r.tasks)-i)
		t.rate = math.Min(r.taskCap, share)
		remaining -= t.rate
	}
}

// Task is one unit of work executing on a Resource.
type Task struct {
	res       *Resource // nil once the task has finished
	label     string
	remaining float64
	rate      float64
	settled   float64 // virtual time remaining was last brought up to date
	done      func()
}

// Submit adds a task with the given amount of work (in work units). done is
// invoked (may be nil) when the work completes. The label names the task
// to the resource's finished observer.
func (r *Resource) Submit(label string, work float64, done func()) *Task {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("ps: task %q submitted with invalid work %v", label, work))
	}
	t := &Task{
		res:       r,
		label:     label,
		remaining: work,
		settled:   r.eng.Now(),
		done:      done,
	}
	r.settleAll()
	r.tasks = append(r.tasks, t)
	r.retimeAll()
	return t
}

// Finished reports whether the task has completed.
func (t *Task) Finished() bool { return t.res == nil }

// Remaining returns the work left, settling progress up to the current time.
func (t *Task) Remaining() float64 {
	if t.res == nil {
		return 0
	}
	now := t.res.eng.Now()
	return t.remaining - t.rate*(now-t.settled)
}

// Freeze stops all progress on the resource (models a node going down while
// keeping its work queue intact). Tasks resume from their exact remaining
// work on Thaw.
func (r *Resource) Freeze() {
	if r.frozen {
		return
	}
	r.settleAll()
	r.frozen = true
	r.retimeAll()
}

// Thaw resumes a frozen resource.
func (r *Resource) Thaw() {
	if !r.frozen {
		return
	}
	r.settleAll()
	r.frozen = false
	r.retimeAll()
}

// BusySeconds returns the accumulated capacity-seconds consumed so far
// (∫ total rate dt), settled to the current time. Dividing by
// capacity × elapsed gives utilization.
func (r *Resource) BusySeconds() float64 {
	r.accountTo(r.eng.Now())
	return r.busyIntegral
}

func (r *Resource) accountTo(now float64) {
	dt := now - r.lastAccount
	if dt > 0 {
		r.busyIntegral += r.totalRate * dt
	}
	r.lastAccount = now
}

// settleAll brings every task's remaining work up to the current instant.
func (r *Resource) settleAll() {
	now := r.eng.Now()
	r.accountTo(now)
	for _, t := range r.tasks {
		dt := now - t.settled
		if dt > 0 {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				// Guard against float rounding; the completion event fires
				// the callback, so a tiny negative here is only cosmetic.
				t.remaining = 0
			}
		}
		t.settled = now
	}
}

// retimeAll recomputes every task's rate and re-arms the completion
// timer for the first task, in submission order, due earliest. Must be
// called with all tasks settled to Now. The timer is re-armed on every
// change, even when the earliest time did not move, and completes one
// task per fire: a completion then fires after every event scheduled
// before the resource's last change, which fixes how it ties with other
// subsystems' events at one instant.
func (r *Resource) retimeAll() {
	now := r.eng.Now()
	r.waterFill()
	r.totalRate = 0
	r.timer.Cancel()
	r.timer, r.next = sim.Timer{}, nil
	eta := math.Inf(1)
	for _, t := range r.tasks {
		r.totalRate += t.rate
		if t.rate <= 0 {
			continue // frozen: no completion until thawed
		}
		if due := now + t.remaining/t.rate; due < eta {
			eta, r.next = due, t
		}
	}
	if r.next != nil {
		r.timer = r.sched.At(eta, r.fire)
	}
}

// completeNext finishes the task the completion timer fired for.
func (r *Resource) completeNext() {
	t := r.next
	r.settleAll()
	t.res = nil
	t.remaining = 0
	i := slices.Index(r.tasks, t)
	r.tasks = slices.Delete(r.tasks, i, i+1)
	r.retimeAll()
	if r.finished != nil {
		r.finished(t.label)
	}
	if t.done != nil {
		t.done()
	}
}
