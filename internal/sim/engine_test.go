package sim

import (
	"math"
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Scope("test").At(3, func() { order = append(order, 3) })
	e.Scope("test").At(1, func() { order = append(order, 1) })
	e.Scope("test").At(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final Now() = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Scope("test").At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break order broken: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at float64
	e.Scope("test").At(10, func() {
		e.Scope("test").After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Scope("test").At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Scope("test").At(5, func() {})
	})
	e.Run()
}

func TestNilFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil function did not panic")
		}
	}()
	e.Scope("test").At(1, nil)
}

func TestNaNTimePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	e.Scope("test").At(math.NaN(), func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Scope("test").At(5, func() { fired = true })
	if !timer.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !timer.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestZeroTimerIsInert(t *testing.T) {
	var timer Timer
	if timer.Cancel() {
		t.Fatal("Cancel on zero timer should report false")
	}
	if timer.Active() {
		t.Fatal("zero timer should not be active")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Scope("test").At(1, func() { order = append(order, 1) })
	mid := e.Scope("test").At(2, func() { order = append(order, 2) })
	e.Scope("test").At(3, func() { order = append(order, 3) })
	mid.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.Scope("test").At(5, func() { fired = append(fired, 5) })
	e.Scope("test").At(15, func() { fired = append(fired, 15) })
	e.RunUntil(10)
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("fired = %v, want [5]", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [5 15]", fired)
	}
}

func TestRunUntilDeadlineBeforeNowDoesNotRewind(t *testing.T) {
	e := NewEngine()
	e.Scope("test").At(20, func() {})
	e.Run()
	e.RunUntil(10)
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20 (clock must not rewind)", e.Now())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	e := NewEngine()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			e.Scope("test").After(1, schedule)
		}
	}
	e.Scope("test").At(0, schedule)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", e.Now())
	}
}

// Run stops on the step that finds the queue empty: that step fires
// nothing.
func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.step() {
		t.Fatal("step on empty queue should report false")
	}
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.Scope("test").After(-1, func() {})
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Scope("test").At(float64(j%97), func() {})
		}
		e.Run()
	}
}
