package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const eps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) < eps }

func TestSerialJobOnReferenceNode(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("amb10", 2, 1.0)
	var done float64
	n.Submit("tillamook", 40000, func() { done = e.Now() })
	e.Run()
	if !almost(done, 40000) {
		t.Fatalf("job finished at %v, want 40000", done)
	}
}

func TestNodeSpeedScalesRuntime(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	fast := c.AddNode("fast", 2, 2.0)
	slow := c.AddNode("slow", 2, 0.5)
	var tFast, tSlow float64
	fast.Submit("a", 100, func() { tFast = e.Now() })
	slow.Submit("b", 100, func() { tSlow = e.Now() })
	e.Run()
	if !almost(tFast, 50) {
		t.Fatalf("fast node finished at %v, want 50", tFast)
	}
	if !almost(tSlow, 200) {
		t.Fatalf("slow node finished at %v, want 200", tSlow)
	}
}

func TestPaperCPUSharingExample(t *testing.T) {
	// §4.1: "if three forecasts run concurrently on a node with two CPUs,
	// ForeMan will compute the expected completion time of each assuming
	// each forecast gets 2/3 of the available CPU cycles."
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 2, 1.0)
	var finishes []float64
	for i := 0; i < 3; i++ {
		n.Submit("f", 1000, func() { finishes = append(finishes, e.Now()) })
	}
	e.Run()
	for _, f := range finishes {
		if !almost(f, 1500) {
			t.Fatalf("finishes = %v, want all 1500 (rate 2/3)", finishes)
		}
	}
}

func TestFailFreezesJobsAndRepairResumes(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 2, 1.0)
	var done float64
	n.Submit("f", 100, func() { done = e.Now() })
	e.Scope("test").At(40, func() { n.Fail() })
	e.Scope("test").At(90, func() { n.Repair() })
	e.Run()
	if !almost(done, 150) {
		t.Fatalf("job finished at %v, want 150 (40 run + 50 down + 60 run)", done)
	}
}

func TestSubmitToDownNodeWaits(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 1, 1.0)
	n.Fail()
	if !n.Down() {
		t.Fatal("node should be down")
	}
	var done float64
	n.Submit("f", 10, func() { done = e.Now() })
	e.Scope("test").At(100, func() { n.Repair() })
	e.Run()
	if !almost(done, 110) {
		t.Fatalf("job finished at %v, want 110", done)
	}
}

func TestDoubleFailAndRepairAreIdempotent(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 1, 1.0)
	n.Fail()
	n.Fail()
	n.Repair()
	n.Repair()
	if n.Down() {
		t.Fatal("node should be up")
	}
}

func TestClusterAccessors(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	c.AddNode("b", 2, 1.0)
	c.AddNode("a", 2, 2.0)
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0].Name() != "a" || nodes[1].Name() != "b" {
		t.Fatalf("Nodes() not name-sorted: %v, %v", nodes[0].Name(), nodes[1].Name())
	}
	if c.Node("a") == nil || c.Node("zz") != nil {
		t.Fatal("Node lookup wrong")
	}
	if c.Engine() != e {
		t.Fatal("Engine accessor wrong")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	c.AddNode("n", 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate node did not panic")
		}
	}()
	c.AddNode("n", 1, 1)
}

func TestInvalidNodeParamsPanic(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	for _, tc := range []struct {
		cpus  int
		speed float64
	}{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddNode(%d, %v) did not panic", tc.cpus, tc.speed)
				}
			}()
			c.AddNode("bad", tc.cpus, tc.speed)
		}()
	}
}

func TestUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 2, 1.0)
	n.Submit("f", 100, nil)
	e.RunUntil(200)
	// 100 CPU-seconds consumed over 200s × 2 CPUs = 0.25.
	if !almost(n.Utilization(), 0.25) {
		t.Fatalf("Utilization = %v, want 0.25", n.Utilization())
	}
}

func TestNodeAccessors(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 2, 1.5)
	if n.CPUs() != 2 || n.Speed() != 1.5 || n.Active() != 0 {
		t.Fatal("accessors wrong")
	}
	e.RunUntil(5)
	j := n.Submit("f", 100, nil)
	if n.Active() != 1 {
		t.Fatalf("Active = %d", n.Active())
	}
	e.RunUntil(15)
	// 10 s at rate 1.5 → 15 done of 100.
	if got := j.Remaining(); math.Abs(got-85) > eps {
		t.Fatalf("Remaining = %v, want 85", got)
	}
	e.Run()
	if !j.Finished() || j.Remaining() != 0 {
		t.Fatal("job should finish")
	}
}

// Property: the paper's CPU-sharing rule. k identical serial jobs of work W
// started together on a node with c CPUs of speed s all finish at
// W / (s·min(1, c/k)).
func TestPropertyCPUSharingRule(t *testing.T) {
	f := func(kRaw, cRaw uint8, wRaw uint16, sRaw uint8) bool {
		k := int(kRaw%6) + 1
		cpus := int(cRaw%4) + 1
		w := float64(wRaw%10000) + 1
		speed := 0.5 + float64(sRaw%8)*0.25
		e := sim.NewEngine()
		c := New(e)
		n := c.AddNode("n", cpus, speed)
		for i := 0; i < k; i++ {
			n.Submit("f", w, nil)
		}
		end := e.Run()
		rate := speed * math.Min(1, float64(cpus)/float64(k))
		want := w / rate
		if math.Abs(end-want) > 1e-6*want {
			t.Logf("k=%d cpus=%d speed=%v w=%v: end=%v want=%v", k, cpus, speed, w, end, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Utilization's denominator keeps running while the node is down, and the
// numerator freezes: a node busy for 100s, down for 300s, then busy again
// for 100s has consumed 100 of 500 capacity-seconds per CPU.
func TestUtilizationAcrossDowntime(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 1, 1.0)
	n.Submit("f", 200, nil) // 1 CPU: rate 1, finishes after 200 busy seconds
	e.Scope("test").At(100, n.Fail)
	e.Scope("test").At(400, n.Repair)
	e.Run()
	// Timeline: busy [0,100], frozen [100,400], busy [400,500].
	if now := e.Now(); !almost(now, 500) {
		t.Fatalf("job finished at %v, want 500", now)
	}
	if u := n.Utilization(); !almost(u, 200.0/500.0) {
		t.Fatalf("Utilization = %v, want 0.4", u)
	}
	if b := n.BusySeconds(); !almost(b, 200) {
		t.Fatalf("BusySeconds = %v, want 200", b)
	}
}

// The lifecycle event stream: kinds and order, observer chaining, and the
// guarantee that observers see the post-transition node state.
func TestOnEventStream(t *testing.T) {
	e := sim.NewEngine()
	c := New(e)
	n := c.AddNode("n", 1, 1.0)
	type seen struct {
		kind, node, job string
		active          int
		down            bool
	}
	var first, second []seen
	c.OnEvent(func(ev JobEvent) {
		at := ev.Node
		if at != c.Node(at.Name()) {
			t.Errorf("%s event carries node %p, not the cluster's %q", ev.Kind, at, at.Name())
		}
		first = append(first, seen{ev.Kind, at.Name(), ev.Job, at.Active(), at.Down()})
	})
	c.OnEvent(func(ev JobEvent) { // chained after the first observer
		second = append(second, seen{kind: ev.Kind})
	})
	n.Submit("a", 100, nil)
	n.Submit("b", 1000, nil)
	e.Scope("test").At(50, n.Fail)
	e.Scope("test").At(150, n.Repair)
	e.Scope("test").At(200, func() { c.AddNode("m", 2, 1.0) })
	e.Run()
	want := []seen{
		{"submit", "n", "a", 1, false}, // a running
		{"submit", "n", "b", 2, false}, // b joins, k=2
		{"fail", "n", "", 2, true},     // frozen with both jobs intact
		{"repair", "n", "", 2, false},  // thawed
		{"add", "m", "", 0, false},     // m joins the roster
		{"finish", "n", "a", 1, false}, // a done at 300; post-state k=1
		{"finish", "n", "b", 0, false}, // b done at 1200; post-state k=0
	}
	if len(first) != len(want) {
		t.Fatalf("saw %d events %+v, want %d", len(first), first, len(want))
	}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("event %d = %+v, want %+v", i, first[i], w)
		}
	}
	if len(second) != len(first) {
		t.Fatalf("chained observer saw %d events, want %d", len(second), len(first))
	}
	for i := range second {
		if second[i].kind != first[i].kind {
			t.Fatalf("chained observer event %d kind %q, want %q", i, second[i].kind, first[i].kind)
		}
	}
	if now := e.Now(); !almost(now, 1200) {
		t.Fatalf("b finished at %v, want 1200", now)
	}
}
