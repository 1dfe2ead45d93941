package ps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

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

// Property: water-filling is max-min fair — rates never exceed the
// resource's cap, the total never exceeds capacity, and capacity is fully
// used whenever some task is below the cap (work-conserving).
func TestPropertyWaterFillingInvariants(t *testing.T) {
	f := func(nRaw, capRaw, capacityRaw uint8) bool {
		capacity := 1 + float64(capacityRaw%8)
		taskCap := 0.25 + float64(capRaw%12)*0.25
		e := sim.NewEngine()
		r := NewResource(e, "cpu", capacity, taskCap, nil)
		var tasks []*Task
		for i := 0; i < 1+int(nRaw%8); i++ {
			tasks = append(tasks, r.Submit(string(rune('a'+i)), 1e6, nil))
		}
		var total float64
		anyBelowCap := false
		for _, task := range tasks {
			if task.rate > taskCap+eps {
				return false
			}
			if task.rate < taskCap-eps {
				anyBelowCap = true
			}
			total += task.rate
		}
		if total > capacity+eps {
			return false
		}
		// Work conservation: if anyone is throttled below the cap, the
		// whole capacity must be in use.
		if anyBelowCap && math.Abs(total-capacity) > eps {
			return false
		}
		// Max-min: a task below the cap must have rate ≥ every other
		// task's rate.
		for _, a := range tasks {
			if a.rate < taskCap-eps {
				for _, b := range tasks {
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
