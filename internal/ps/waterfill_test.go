package ps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCappedTaskAloneUsesItsCap(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil) // 2 CPUs
	var done float64
	// A width-2 mega-job alone consumes both CPUs.
	r.SubmitCapped("mega", 100, 2.0, func() { done = e.Now() })
	e.Run()
	if !almost(done, 50) {
		t.Fatalf("mega-job finished at %v, want 50", done)
	}
}

func TestCapClampedToCapacity(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	task := r.SubmitCapped("mega", 100, 99, nil)
	if task.cap != 2.0 {
		t.Fatalf("cap = %v, want clamped to 2", task.cap)
	}
	e.Run()
}

func TestMegaJobYieldsToSerialJobsFairly(t *testing.T) {
	// 2 CPUs: a serial job (cap 1) and a mega-job (cap 2). Max-min: the
	// serial job gets 1, the mega-job the remaining 1.
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	var tSerial, tMega float64
	r.Submit("serial", 100, func() { tSerial = e.Now() })
	r.SubmitCapped("mega", 100, 2.0, func() { tMega = e.Now() })
	e.Run()
	if !almost(tSerial, 100) {
		t.Fatalf("serial finished at %v, want 100 (full CPU)", tSerial)
	}
	// Mega: rate 1 until t=100 (100 work left... it had 100, did 100) —
	// both finish at 100.
	if !almost(tMega, 100) {
		t.Fatalf("mega finished at %v, want 100", tMega)
	}
}

func TestMegaJobSoaksLeftoverCapacity(t *testing.T) {
	// 3 CPUs: two serial jobs (1 each) + one mega-job (cap 3) → mega gets
	// the leftover 1 CPU while they run, then all 3 CPUs.
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 3.0, 1.0, nil)
	var tMega float64
	r.Submit("s1", 50, nil)
	r.Submit("s2", 50, nil)
	r.SubmitCapped("mega", 200, 3.0, func() { tMega = e.Now() })
	e.Run()
	// Phase 1 (t ≤ 50): mega at rate 1 → 50 done. Phase 2: alone at rate
	// 3 → 150 left → 50 more seconds. Total 100.
	if !almost(tMega, 100) {
		t.Fatalf("mega finished at %v, want 100", tMega)
	}
}

func TestInvalidCapPanics(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 1, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("zero cap did not panic")
		}
	}()
	r.SubmitCapped("bad", 10, 0, nil)
}

func TestRateAccessor(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 2.0, 1.0, nil)
	a := r.Submit("a", 100, nil)
	if !almost(a.rate, 1.0) {
		t.Fatalf("rate = %v, want 1", a.rate)
	}
	for i := 0; i < 3; i++ {
		r.Submit("other", 100, nil)
	}
	if !almost(a.rate, 0.5) {
		t.Fatalf("rate with 4 tasks on 2 CPUs = %v, want 0.5", a.rate)
	}
	e.Run()
}

// Property: water-filling is max-min fair — rates never exceed caps, the
// total never exceeds capacity, and capacity is fully used whenever some
// task is below its cap (work-conserving).
func TestPropertyWaterFillingInvariants(t *testing.T) {
	f := func(capsRaw []uint8, capacityRaw uint8) bool {
		if len(capsRaw) == 0 || len(capsRaw) > 8 {
			return true
		}
		capacity := 1 + float64(capacityRaw%8)
		e := sim.NewEngine()
		r := NewResource(e, "cpu", capacity, capacity, nil)
		var tasks []*Task
		for i, c := range capsRaw {
			cap := 0.25 + float64(c%12)*0.25
			tasks = append(tasks, r.SubmitCapped(string(rune('a'+i)), 1e6, cap, nil))
		}
		var total float64
		anyBelowCap := false
		for _, task := range tasks {
			if task.rate > task.cap+eps {
				return false
			}
			if task.rate < task.cap-eps {
				anyBelowCap = true
			}
			total += task.rate
		}
		if total > capacity+eps {
			return false
		}
		// Work conservation: if anyone is throttled below its cap, the
		// whole capacity must be in use.
		if anyBelowCap && math.Abs(total-capacity) > eps {
			return false
		}
		// Max-min: a task below its cap must have rate ≥ every other
		// task's rate (no one smaller-capped starves it).
		for _, a := range tasks {
			if a.rate < a.cap-eps {
				for _, b := range tasks {
					if b.rate > a.rate+eps && b.rate > b.cap-eps {
						continue // b is at its (smaller) cap — fine
					}
					if b.rate > a.rate+eps {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
