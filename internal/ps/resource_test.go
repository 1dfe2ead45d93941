package ps

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const eps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) < eps }

func TestSingleTaskRunsAtCap(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil) // 2 CPUs, serial task
	var doneAt float64
	r.Submit("job", 100, func() { doneAt = e.Now() })
	e.Run()
	if !almost(doneAt, 100) {
		t.Fatalf("single serial task on 2-CPU node finished at %v, want 100", doneAt)
	}
}

func TestTwoTasksOnTwoCPUsDoNotInterfere(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	var t1, t2 float64
	r.Submit("a", 100, func() { t1 = e.Now() })
	r.Submit("b", 50, func() { t2 = e.Now() })
	e.Run()
	if !almost(t1, 100) || !almost(t2, 50) {
		t.Fatalf("finish times %v, %v; want 100, 50", t1, t2)
	}
}

func TestThreeTasksShareTwoCPUs(t *testing.T) {
	// Paper §4.1: three forecasts on a 2-CPU node each get 2/3 of a CPU.
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	var finish []float64
	for i := 0; i < 3; i++ {
		r.Submit("job", 100, func() { finish = append(finish, e.Now()) })
	}
	e.Run()
	// All three progress at 2/3; they finish together at 150.
	for _, f := range finish {
		if !almost(f, 150) {
			t.Fatalf("finish times %v, want all 150", finish)
		}
	}
}

func TestDepartureSpeedsUpRemainder(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil) // 1 CPU
	var tShort, tLong float64
	r.Submit("short", 10, func() { tShort = e.Now() })
	r.Submit("long", 30, func() { tLong = e.Now() })
	e.Run()
	// Both at rate 1/2 until short finishes: short needs 20s.
	// Long then has 30-10=20 left at rate 1: finishes at 40.
	if !almost(tShort, 20) {
		t.Fatalf("short finished at %v, want 20", tShort)
	}
	if !almost(tLong, 40) {
		t.Fatalf("long finished at %v, want 40", tLong)
	}
}

func TestLateArrivalSlowsExisting(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	var tA float64
	r.Submit("a", 100, func() { tA = e.Now() })
	e.Scope("test").At(50, func() {
		r.Submit("b", 100, nil)
	})
	e.Run()
	// a runs alone for 50s (50 done), then shares: 50 left at rate 1/2 = 100s more.
	if !almost(tA, 150) {
		t.Fatalf("a finished at %v, want 150", tA)
	}
}

func TestRemainingSettlesMidFlight(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	task := r.Submit("a", 100, nil)
	e.Scope("test").At(30, func() {
		if !almost(task.Remaining(), 70) {
			t.Errorf("Remaining at t=30 is %v, want 70", task.Remaining())
		}
	})
	e.Run()
	if task.Remaining() != 0 {
		t.Fatalf("Remaining after finish = %v, want 0", task.Remaining())
	}
	if !task.Finished() {
		t.Fatal("task should be finished")
	}
}

func TestFreezeAndThaw(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	var done float64
	r.Submit("a", 100, func() { done = e.Now() })
	e.Scope("test").At(30, func() { r.Freeze() })
	e.Scope("test").At(80, func() { r.Thaw() })
	e.Run()
	// 30s of work, 50s frozen, 70s more work: finishes at 150.
	if !almost(done, 150) {
		t.Fatalf("task finished at %v, want 150", done)
	}
}

func TestSubmitWhileFrozenWaits(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	r.Freeze()
	var done float64
	r.Submit("a", 10, func() { done = e.Now() })
	e.Scope("test").At(100, func() { r.Thaw() })
	e.Run()
	if !almost(done, 110) {
		t.Fatalf("task finished at %v, want 110", done)
	}
}

// Completions tied at one instant fire in submission order, also after a
// task has left from the middle of the active list.
func TestTiedCompletionsFireInSubmissionOrder(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 5.0, 1.0, nil)
	var order []string
	for _, tc := range []struct {
		label string
		work  float64
	}{{"a", 100}, {"short", 10}, {"b", 100}, {"c", 100}, {"d", 100}} {
		label := tc.label
		r.Submit(label, tc.work, func() { order = append(order, label) })
	}
	e.Run()
	if got := strings.Join(order, " "); got != "short a b c d" || !almost(e.Now(), 100) {
		t.Fatalf("completion order %q at %v, want \"short a b c d\" with a to d tied at 100", got, e.Now())
	}
}

func TestZeroWorkTaskCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	var done bool
	r.Submit("zero", 0, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("zero-work task never completed")
	}
	if e.Now() != 0 {
		t.Fatalf("zero-work task advanced clock to %v", e.Now())
	}
}

func TestBusySecondsTracksUtilization(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	r.Submit("a", 100, nil) // runs alone: 100s at rate 1 on capacity 2
	e.Run()
	if !almost(r.BusySeconds(), 100) {
		t.Fatalf("BusySeconds = %v, want 100", r.BusySeconds())
	}
}

func TestResourceAccessors(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu:n1", 2.0, 1.0, nil)
	if r.Capacity() != 2.0 || r.taskCap != 1.0 {
		t.Fatal("accessors wrong")
	}
	if r.frozen {
		t.Fatal("new resource frozen")
	}
	r.Freeze()
	if !r.frozen {
		t.Fatal("Freeze not reported")
	}
	r.Freeze() // idempotent
	r.Thaw()
	r.Thaw() // idempotent
	if r.frozen {
		t.Fatal("Thaw not reported")
	}
	task := r.Submit("a", 10, nil)
	e.Run()
	if !task.Finished() {
		t.Fatal("task state wrong")
	}
}

func TestInvalidConstruction(t *testing.T) {
	e := sim.NewEngine()
	for _, tc := range []struct{ c, m float64 }{{0, 1}, {1, 0}, {-1, 1}, {1, -1}, {1, math.NaN()}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewResource(%v, %v) did not panic", tc.c, tc.m)
				}
			}()
			NewResource(e, "bad", tc.c, tc.m, nil)
		}()
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1.0, 1.0, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	r.Submit("bad", -5, nil)
}

// Property: total work conserved. For any set of task sizes, the sum of
// (finish_time_i × average rate) equals the submitted work; equivalently
// the makespan of k equal tasks of work W on capacity C with cap M is
// W / min(M, C/k) and BusySeconds equals the total work.
func TestPropertyEqualTasksMakespan(t *testing.T) {
	f := func(nRaw uint8, wRaw uint16, cpusRaw uint8) bool {
		n := int(nRaw%8) + 1
		w := float64(wRaw%5000) + 1
		cpus := float64(cpusRaw%4) + 1
		e := sim.NewEngine()
		r := NewResource(e, "cpu", cpus, 1.0, nil)
		finishes := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			r.Submit("job", w, func() { finishes = append(finishes, e.Now()) })
		}
		end := e.Run()
		rate := math.Min(1.0, cpus/float64(n))
		want := w / rate
		if !almost(end, want) {
			t.Logf("n=%d w=%v cpus=%v: end=%v want=%v", n, w, cpus, end, want)
			return false
		}
		// Work conservation.
		if !almost(r.BusySeconds(), w*float64(n)) {
			t.Logf("busy=%v want=%v", r.BusySeconds(), w*float64(n))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: in processor sharing, tasks finish in order of their work, and
// every task's sojourn time is at least its isolated service time.
func TestPropertySojournAndOrdering(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 10 {
			return true
		}
		e := sim.NewEngine()
		r := NewResource(e, "cpu", 1.0, 1.0, nil)
		type result struct {
			work   float64
			finish float64
		}
		results := make([]result, len(sizesRaw))
		for i, sRaw := range sizesRaw {
			w := float64(sRaw%1000) + 1
			i := i
			results[i].work = w
			r.Submit("job", w, func() { results[i].finish = e.Now() })
		}
		e.Run()
		for i, res := range results {
			if res.finish+eps < res.work {
				t.Logf("task %d finished at %v before isolated time %v", i, res.finish, res.work)
				return false
			}
			for j, other := range results {
				if res.work < other.work && res.finish > other.finish+eps {
					t.Logf("task %d (w=%v) finished after task %d (w=%v)", i, res.work, j, other.work)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The finished observer hears each completion by label after the resource
// has retimed (the survivors' rates already reflect the departure) and
// before the task's own done runs.
func TestFinishedObserverRunsBeforeDone(t *testing.T) {
	e := sim.NewEngine()
	var log []string
	var r *Resource
	r = NewResource(e, "cpu", 1.0, 1.0, func(label string) {
		log = append(log, "finished "+label)
		if label == "a" && !almost(r.tasks[0].rate, 1) {
			t.Errorf("survivor rate %v at a's finish, want 1 (retimed)", r.tasks[0].rate)
		}
	})
	r.Submit("a", 10, func() { log = append(log, "done a") })
	r.Submit("b", 30, nil)
	e.Run()
	want := "finished a, done a, finished b"
	if got := strings.Join(log, ", "); got != want {
		t.Fatalf("completion order %q, want %q", got, want)
	}
}
