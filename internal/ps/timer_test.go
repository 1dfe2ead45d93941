package ps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// A resource keeps one completion event however many tasks it holds,
// none while frozen, and none once it is empty.
func TestOneCompletionEventPerResource(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "cpu", 3.0, 1.0, nil)
	for k := 1; k <= 5; k++ {
		r.Submit(fmt.Sprint("t", k), float64(10*k), nil)
		if got := e.Pending(); got != 1 {
			t.Fatalf("%d tasks: %d pending events, want 1", k, got)
		}
	}
	r.Freeze()
	if got := e.Pending(); got != 0 {
		t.Fatalf("frozen: %d pending events, want 0", got)
	}
	r.Thaw()
	if got := e.Pending(); got != 1 {
		t.Fatalf("thawed: %d pending events, want 1", got)
	}
	for at := 1.0; r.Active() > 0; at++ {
		e.RunUntil(at) // the completions are more than a second apart
		if want := min(r.Active(), 1); e.Pending() != want {
			t.Fatalf("%d tasks left: %d pending events, want %d", r.Active(), e.Pending(), want)
		}
	}
}

// A completion tied at one instant with another subsystem's event keeps
// the order it has always had. Every change on the resource re-arms the
// completion timer, so an event scheduled before the change fires first
// even when the change left the earliest completion time where it was;
// and tied tasks complete one per fire, so an event scheduled between
// their arming fires between them.
func TestCompletionTiesWithOtherScopesKeepOrder(t *testing.T) {
	e := sim.NewEngine()
	other := e.Scope("other")
	r := NewResource(e, "cpu", 3.0, 1.0, nil)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	r.Submit("a", 100, note("a")) // alone at rate 1: due at 100
	other.At(100, note("x"))      // scheduled after a was armed
	other.At(10, func() {
		// b and c run beside a without slowing it: a stays due at
		// exactly 10 + 90/1 = 100, but the change re-arms its timer
		// behind x.
		r.Submit("b", 200, note("b"))
		r.Submit("c", 90, note("c")) // due at 100 too, after a
		other.At(100, note("y"))     // armed after a and c
	})
	e.Run()
	if got, want := strings.Join(order, " "), "x a y c b"; got != want {
		t.Fatalf("firing order %q, want %q", got, want)
	}
}

// refTask is one task in the reference model.
type refTask struct {
	id              int
	remaining, rate float64
}

// refOp is one scheduled operation in a random sequence.
type refOp struct {
	at   float64
	kind string // "submit", "freeze", "thaw"
	task int
	work float64
}

// reference runs ops through a direct processor-sharing model: at each
// operation that changes something it settles every task and
// water-fills the capacity in submission order; between operations it
// completes the task with the earliest finish time (ties in submission
// order), one at a time; an operation due with a completion goes first.
// A freeze of a frozen resource and a thaw of a running one change
// nothing, so they settle nothing. It returns each task's completion
// time and the completion order.
func reference(capacity, taskCap float64, ops []refOp) (map[int]float64, []int) {
	var active []*refTask
	frozen := false
	now := 0.0
	fill := func() {
		if frozen {
			for _, t := range active {
				t.rate = 0
			}
			return
		}
		left := capacity
		for i, t := range active {
			t.rate = math.Min(taskCap, left/float64(len(active)-i))
			left -= t.rate
		}
	}
	settle := func(to float64) {
		for _, t := range active {
			if dt := to - now; dt > 0 {
				t.remaining -= t.rate * dt
				if t.remaining < 0 {
					t.remaining = 0
				}
			}
		}
		now = to
	}
	finish := map[int]float64{}
	var order []int
	for i := 0; ; {
		var next *refTask
		eta := math.Inf(1)
		for _, t := range active {
			if t.rate <= 0 {
				continue
			}
			if e := now + t.remaining/t.rate; e < eta {
				next, eta = t, e
			}
		}
		if i < len(ops) && ops[i].at <= eta {
			op := ops[i]
			i++
			if op.kind == "freeze" && frozen || op.kind == "thaw" && !frozen {
				continue
			}
			settle(op.at)
			switch op.kind {
			case "submit":
				active = append(active, &refTask{id: op.task, remaining: op.work})
			case "freeze":
				frozen = true
			case "thaw":
				frozen = false
			}
			fill()
			continue
		}
		if next == nil {
			return finish, order
		}
		settle(eta)
		active = slices.DeleteFunc(active, func(t *refTask) bool { return t == next })
		finish[next.id] = eta
		order = append(order, next.id)
		fill()
	}
}

// Random submit, freeze and thaw sequences complete every task at the
// reference model's time and in its order.
func TestRandomSequencesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := float64(1 + rng.Intn(4))
		taskCap := 1.0
		var ops []refOp
		at := 0.0
		for id := 0; id < 3+rng.Intn(12); id++ {
			at += math.Round(rng.Float64()*40*8) / 8 // ties with completions happen
			switch rng.Intn(6) {
			case 0:
				ops = append(ops, refOp{at: at, kind: "freeze"})
			case 1:
				ops = append(ops, refOp{at: at, kind: "thaw"})
			}
			work := float64(rng.Intn(6)) * 10 // equal works tie
			ops = append(ops, refOp{at: at, kind: "submit", task: id, work: work})
		}
		ops = append(ops, refOp{at: at + 1, kind: "thaw"})

		e := sim.NewEngine()
		r := NewResource(e, "cpu", capacity, taskCap, nil)
		got := map[int]float64{}
		var gotOrder []int
		// Operations at one instant go in list order, ahead of any
		// completion due then, as the reference applies them.
		byTime := map[float64][]refOp{}
		var times []float64
		for _, op := range ops {
			if _, ok := byTime[op.at]; !ok {
				times = append(times, op.at)
			}
			byTime[op.at] = append(byTime[op.at], op)
		}
		for _, when := range times {
			batch := byTime[when]
			e.Scope("test").At(when, func() {
				for _, op := range batch {
					switch op.kind {
					case "submit":
						id := op.task
						r.Submit("t", op.work, func() {
							got[id] = e.Now()
							gotOrder = append(gotOrder, id)
						})
					case "freeze":
						r.Freeze()
					case "thaw":
						r.Thaw()
					}
				}
			})
		}
		e.Run()

		want, wantOrder := reference(capacity, taskCap, ops)
		if !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("seed %d: completion order %v, want %v", seed, gotOrder, wantOrder)
		}
		for id, w := range want {
			if g := got[id]; math.Abs(g-w) > 1e-9*math.Max(1, w) {
				t.Fatalf("seed %d: task %d completed at %v, want %v", seed, id, g, w)
			}
		}
	}
}
