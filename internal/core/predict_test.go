package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/logs"
	"repro/internal/sim"
)

const eps = 1e-6

func almost(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func twoCPUNode() []NodeInfo {
	return []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1.0}}
}

func TestPredictSingleRun(t *testing.T) {
	plan := &Plan{
		Nodes:  twoCPUNode(),
		Runs:   []Run{{Name: "a", Work: 40000, Start: 10800}},
		Assign: map[string]string{"a": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["a"], 50800) {
		t.Fatalf("completion = %v, want 50800", pred.Completion["a"])
	}
}

func TestPredictPaperExampleThreeRunsTwoCPUs(t *testing.T) {
	// §4.1: three concurrent forecasts on a 2-CPU node each get 2/3 of a
	// CPU.
	plan := &Plan{
		Nodes: twoCPUNode(),
		Runs: []Run{
			{Name: "a", Work: 1000},
			{Name: "b", Work: 1000},
			{Name: "c", Work: 1000},
		},
		Assign: map[string]string{"a": "n1", "b": "n1", "c": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !almost(pred.Completion[name], 1500) {
			t.Fatalf("%s completes at %v, want 1500", name, pred.Completion[name])
		}
	}
}

func TestPredictStaggeredArrivals(t *testing.T) {
	// One CPU: a arrives at 0 (work 100), b at 50 (work 100).
	// a: 50 alone + shares until its 50 remaining done at rate 1/2 → 150.
	// b: 50 done by 150, then alone for 50 → 200.
	plan := &Plan{
		Nodes: []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1.0}},
		Runs: []Run{
			{Name: "a", Work: 100, Start: 0},
			{Name: "b", Work: 100, Start: 50},
		},
		Assign: map[string]string{"a": "n1", "b": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["a"], 150) || !almost(pred.Completion["b"], 200) {
		t.Fatalf("completions = %v", pred.Completion)
	}
}

func TestPredictIdleGapBetweenRuns(t *testing.T) {
	plan := &Plan{
		Nodes: []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1.0}},
		Runs: []Run{
			{Name: "a", Work: 10, Start: 0},
			{Name: "b", Work: 10, Start: 1000},
		},
		Assign: map[string]string{"a": "n1", "b": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["a"], 10) || !almost(pred.Completion["b"], 1010) {
		t.Fatalf("completions = %v", pred.Completion)
	}
}

func TestPredictNodeSpeedScales(t *testing.T) {
	plan := &Plan{
		Nodes:  []NodeInfo{{Name: "fast", CPUs: 2, Speed: 2.0}},
		Runs:   []Run{{Name: "a", Work: 1000}},
		Assign: map[string]string{"a": "fast"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["a"], 500) {
		t.Fatalf("completion = %v, want 500", pred.Completion["a"])
	}
}

func TestPredictDownNodeAndUnassigned(t *testing.T) {
	plan := &Plan{
		Nodes: []NodeInfo{
			{Name: "n1", CPUs: 2, Speed: 1, Down: true},
			{Name: "n2", CPUs: 2, Speed: 1},
		},
		Runs: []Run{
			{Name: "a", Work: 100},
			{Name: "b", Work: 100},
		},
		Assign: map[string]string{"a": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pred.Completion["a"], 1) {
		t.Fatalf("down-node run completion = %v, want +Inf", pred.Completion["a"])
	}
	if !math.IsInf(pred.Completion["b"], 1) {
		t.Fatalf("unassigned run completion = %v, want +Inf", pred.Completion["b"])
	}
}

func TestPredictZeroWorkRun(t *testing.T) {
	plan := &Plan{
		Nodes:  twoCPUNode(),
		Runs:   []Run{{Name: "a", Work: 0, Start: 500}},
		Assign: map[string]string{"a": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["a"], 500) {
		t.Fatalf("completion = %v, want 500", pred.Completion["a"])
	}
}

func TestLateAndFeasible(t *testing.T) {
	plan := &Plan{
		Nodes: []NodeInfo{{Name: "n1", CPUs: 1, Speed: 1}},
		Runs: []Run{
			{Name: "a", Work: 100, Deadline: 150},
			{Name: "b", Work: 100, Deadline: 150},
			{Name: "c", Work: 50}, // no deadline: never late
		},
		Assign: map[string]string{"a": "n1", "b": "n1", "c": "n1"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	late := pred.Late(plan)
	if len(late) != 2 || late[0] != "a" || late[1] != "b" {
		t.Fatalf("late = %v", late)
	}
	if pred.Feasible(plan) {
		t.Fatal("infeasible plan reported feasible")
	}
	if pred.Makespan() <= 0 {
		t.Fatal("makespan not positive")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	good := func() *Plan {
		return &Plan{
			Nodes:  twoCPUNode(),
			Runs:   []Run{{Name: "a", Work: 10}},
			Assign: map[string]string{"a": "n1"},
		}
	}
	cases := []func(*Plan){
		func(p *Plan) { p.Nodes[0].Name = "" },
		func(p *Plan) { p.Nodes = append(p.Nodes, p.Nodes[0]) },
		func(p *Plan) { p.Nodes[0].CPUs = 0 },
		func(p *Plan) { p.Nodes[0].Speed = -1 },
		func(p *Plan) { p.Runs[0].Name = "" },
		func(p *Plan) { p.Runs = append(p.Runs, p.Runs[0]) },
		func(p *Plan) { p.Runs[0].Work = -1 },
		func(p *Plan) { p.Runs[0].Start = -5 },
		func(p *Plan) { p.Runs[0].Deadline = 5; p.Runs[0].Start = 10 },
		func(p *Plan) { p.Assign["zz"] = "n1" },
		func(p *Plan) { p.Assign["a"] = "zz" },
	}
	for i, mutate := range cases {
		p := good()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad plan", i)
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestPlanMoveAndClone(t *testing.T) {
	p := &Plan{
		Nodes:  []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}, {Name: "n2", CPUs: 2, Speed: 1}},
		Runs:   []Run{{Name: "a", Work: 10}},
		Assign: map[string]string{"a": "n1"},
	}
	c := p.Clone()
	if err := c.Move("a", "n2"); err != nil {
		t.Fatal(err)
	}
	if p.Assign["a"] != "n1" || c.Assign["a"] != "n2" {
		t.Fatal("Clone aliases assignment")
	}
	if err := c.Move("zz", "n1"); err == nil {
		t.Fatal("moved unknown run")
	}
	if err := c.Move("a", "zz"); err == nil {
		t.Fatal("moved to unknown node")
	}
}

// Property: the analytic predictor agrees with the discrete-event
// simulator on random single-node workloads — the same cross-validation
// the paper performed empirically for the CPU-sharing assumption.
func TestPropertyPredictorMatchesSimulator(t *testing.T) {
	f := func(worksRaw []uint16, startsRaw []uint8, cpusRaw, speedRaw uint8) bool {
		n := len(worksRaw)
		if n == 0 || n > 8 || len(startsRaw) < n {
			return true
		}
		cpus := int(cpusRaw%3) + 1
		speed := 0.5 + float64(speedRaw%8)*0.25
		node := NodeInfo{Name: "n", CPUs: cpus, Speed: speed}

		runs := make([]Run, n)
		assign := make(map[string]string, n)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			runs[i] = Run{
				Name:  name,
				Work:  float64(worksRaw[i]%5000) + 1,
				Start: float64(startsRaw[i]) * 37,
			}
			assign[name] = "n"
		}
		plan := &Plan{Nodes: []NodeInfo{node}, Runs: runs, Assign: assign}
		pred, err := plan.Predict()
		if err != nil {
			return false
		}

		// Replay on the discrete-event simulator.
		eng := sim.NewEngine()
		cl := cluster.New(eng)
		cn := cl.AddNode("n", cpus, speed)
		simDone := make(map[string]float64, n)
		for _, r := range runs {
			r := r
			eng.Scope("test").At(r.Start, func() {
				cn.Submit(r.Name, r.Work, func() { simDone[r.Name] = eng.Now() })
			})
		}
		eng.Run()

		for _, r := range runs {
			a, b := pred.Completion[r.Name], simDone[r.Name]
			if math.Abs(a-b) > 1e-6*math.Max(1, b) {
				t.Logf("run %s: predictor %v vs simulator %v", r.Name, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the predictor matches the simulator across a multi-node
// plant with heterogeneous speeds and staggered starts.
func TestPropertyPredictorMatchesSimulatorMultiNode(t *testing.T) {
	f := func(worksRaw []uint16, startsRaw []uint8, nodesRaw uint8) bool {
		n := len(worksRaw)
		if n == 0 || n > 10 || len(startsRaw) < n {
			return true
		}
		nNodes := int(nodesRaw%3) + 1
		nodes := make([]NodeInfo, nNodes)
		for i := range nodes {
			nodes[i] = NodeInfo{
				Name:  string(rune('A' + i)),
				CPUs:  1 + i%2,
				Speed: 0.5 + float64(i)*0.5,
			}
		}
		runs := make([]Run, n)
		assign := make(map[string]string, n)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			runs[i] = Run{
				Name:  name,
				Work:  float64(worksRaw[i]%8000) + 1,
				Start: float64(startsRaw[i]) * 53,
			}
			assign[name] = nodes[i%nNodes].Name
		}
		plan := &Plan{Nodes: nodes, Runs: runs, Assign: assign}
		pred, err := plan.Predict()
		if err != nil {
			return false
		}

		eng := sim.NewEngine()
		cl := cluster.New(eng)
		for _, node := range nodes {
			cl.AddNode(node.Name, node.CPUs, node.Speed)
		}
		simDone := make(map[string]float64, n)
		for _, r := range runs {
			r := r
			node := cl.Node(assign[r.Name])
			eng.Scope("test").At(r.Start, func() {
				node.Submit(r.Name, r.Work, func() { simDone[r.Name] = eng.Now() })
			})
		}
		eng.Run()

		for _, r := range runs {
			a, b := pred.Completion[r.Name], simDone[r.Name]
			if math.Abs(a-b) > 1e-6*math.Max(1, b) {
				t.Logf("run %s: predictor %v vs simulator %v", r.Name, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictNodeMatchesReference holds predictNode's name-ordered active
// slice to the map-based sweep it replaced: every completion must be
// bit-identical. The hand-made cases are the ones where the visiting
// order could show (more runs than CPUs at fractional speeds, where each
// max-min share rounds differently), simultaneous arrivals, completions
// tied at one instant and zero work; the seeded ones mix all of them.
func TestPredictNodeMatchesReference(t *testing.T) {
	type tc struct {
		name string
		node NodeInfo
		runs []Run
	}
	cases := []tc{
		{"simultaneous arrivals, fractional speed", NodeInfo{Name: "n", CPUs: 2, Speed: 1.25}, []Run{
			{Name: "e", Work: 900}, {Name: "a", Work: 400}, {Name: "c", Work: 700}, {Name: "b", Work: 100}, {Name: "d", Work: 1000},
		}},
		{"completions tied at one instant", NodeInfo{Name: "n", CPUs: 2, Speed: 1}, []Run{
			{Name: "c", Work: 300}, {Name: "a", Work: 300}, {Name: "b", Work: 300},
			{Name: "x", Work: 100, Start: 1000}, {Name: "w", Work: 50, Start: 1050},
		}},
		{"zero work", NodeInfo{Name: "n", CPUs: 1, Speed: 0.75}, []Run{
			{Name: "z", Work: 0, Start: 500}, {Name: "a", Work: 600, Start: 200}, {Name: "y", Work: 0, Start: 0}, {Name: "b", Work: 0, Start: 500},
		}},
		{"more runs than CPUs, arriving out of name order", NodeInfo{Name: "n", CPUs: 3, Speed: 1.0 / 3}, []Run{
			{Name: "g", Work: 5000, Start: 0}, {Name: "f", Work: 4000, Start: 10}, {Name: "e", Work: 3000, Start: 20},
			{Name: "d", Work: 2000, Start: 30}, {Name: "c", Work: 1000, Start: 40}, {Name: "b", Work: 700, Start: 50},
			{Name: "a", Work: 300, Start: 60},
		}},
	}
	speeds := []float64{0.3, 0.5, 0.75, 1, 1.25, 1.5, 1.0 / 3}
	rng := rand.New(rand.NewSource(7))
	for seed := 0; seed < 500; seed++ {
		node := NodeInfo{Name: "n", CPUs: 1 + rng.Intn(4), Speed: speeds[rng.Intn(len(speeds))]}
		if rng.Intn(4) == 0 {
			node.Speed = 0.1 + 2*rng.Float64()
		}
		runs := make([]Run, rng.Intn(24))
		for i := range runs {
			r := Run{Name: fmt.Sprintf("r%02d", rng.Intn(100)) + fmt.Sprint(i)}
			if rng.Intn(2) == 0 {
				r.Work = float64(rng.Intn(4)) * 1000 // ties and zero work
			} else {
				r.Work = 1 + 40000*rng.Float64()
			}
			if rng.Intn(2) == 0 {
				r.Start = float64(rng.Intn(4)) * 3600 // simultaneous arrivals
			} else {
				r.Start = 86400 * rng.Float64()
			}
			runs[i] = r
		}
		cases = append(cases, tc{fmt.Sprintf("seed %d", seed), node, runs})
	}
	for _, c := range cases {
		want := referencePredictNode(c.node, c.runs)
		got := predictNode(c.node, c.runs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d completions, reference %d", c.name, len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: run %s completes at %v (%#x), reference %v (%#x)",
					c.name, name, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// TestNonFiniteInputsRefused checks every planner entry point that takes
// a number from outside: a NaN or infinite work, start, deadline or node
// speed, a Delay to a non-finite start, and history whose estimate
// overflows. The predictor cannot retire such a run, so a plan holding
// one must never reach it. Predict and BuildSchedule are called only
// once Validate has refused the plan, so a regression fails here instead
// of hanging.
func TestNonFiniteInputsRefused(t *testing.T) {
	good := func() *Plan {
		return &Plan{
			Nodes:  []NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}, {Name: "n2", CPUs: 2, Speed: 1.5}},
			Runs:   []Run{{Name: "a", Work: 1000, Start: 3600, Deadline: 86400}, {Name: "b", Work: 500}},
			Assign: map[string]string{"a": "n1", "b": "n2"},
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		edit  func(*Plan)
	}{
		{"Work NaN", func(p *Plan) { p.Runs[0].Work = nan }},
		{"Work +Inf", func(p *Plan) { p.Runs[0].Work = inf }},
		{"Start NaN", func(p *Plan) { p.Runs[1].Start = nan }},
		{"Start +Inf", func(p *Plan) { p.Runs[1].Start = inf }},
		{"Deadline NaN", func(p *Plan) { p.Runs[0].Deadline = nan }},
		{"Deadline +Inf", func(p *Plan) { p.Runs[0].Deadline = inf }},
		{"Deadline -Inf", func(p *Plan) { p.Runs[1].Deadline = -inf }},
		{"Speed NaN", func(p *Plan) { p.Nodes[0].Speed = nan }},
		{"Speed +Inf", func(p *Plan) { p.Nodes[1].Speed = inf }},
	} {
		p := good()
		c.edit(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the plan", c.field)
			continue
		}
		if _, err := p.Predict(); err == nil {
			t.Errorf("%s: Predict accepted the plan", c.field)
		}
		for _, h := range packHeuristics {
			if _, err := Pack(p.Nodes, p.Runs, h); err == nil {
				t.Errorf("%s: Pack(%v) accepted the runs", c.field, h)
			}
		}
		if _, err := BuildSchedule(p.Nodes, p.Runs, ScheduleOptions{Heuristic: WorstFitDecreasing, AllowDrop: true}); err == nil {
			t.Errorf("%s: BuildSchedule accepted the runs", c.field)
		}
	}

	// Delay: run a sits on a down node, whose sweep is +Inf without the
	// predictor, so an accepted non-finite start shows as a nil error.
	for _, start := range []float64{nan, inf} {
		p := good()
		p.Nodes[0].Down = true
		s := &Schedule{Plan: p}
		if err := s.repredict(); err != nil {
			t.Fatal(err)
		}
		if err := s.Delay("a", start); err == nil {
			t.Errorf("Delay(a, %v) accepted", start)
		}
		if r, _ := s.Plan.Run("a"); r.Start != 3600 {
			t.Errorf("Delay(a, %v) moved the start to %v", start, r.Start)
		}
	}

	// History whose estimate is not finite: a 1e308 s walltime over one
	// timestep, scaled to 5760 timesteps, or a NaN walltime, which the
	// Walltime <= 0 filter lets through.
	nodes := good().Nodes
	for _, wall := range []float64{1e308, nan} {
		base := histRecord("f", 1, wall, "n1", 1, 30000, 1)
		next := histRecord("f", 2, 40000, "n1", 5760, 30000, 1)
		est := NewEstimator([]*logs.RunRecord{base}, nodes)
		if e, err := est.Estimate(Request{Forecast: "f", Timesteps: 5760, MeshSides: 30000, Node: "n1"}); err == nil {
			t.Errorf("walltime %v: Estimate returned %v s (work %v)", wall, e.Seconds, e.Work)
		}
		spec := forecast.NewSpec("f", "columbia", 5760, 30000, 2)
		runs := est.PlanRuns([]*forecast.Spec{spec}, nodes)
		if len(runs) != 1 || runs[0].Work != spec.TotalWork() {
			t.Errorf("walltime %v: PlanRuns planned %+v, want the spec's work %v", wall, runs, spec.TotalWork())
		}
		if acc := EvaluateEstimates([]*logs.RunRecord{base, next}, nodes); len(acc.Samples) != 0 {
			t.Errorf("walltime %v: EvaluateEstimates kept %+v", wall, acc.Samples)
		}
	}
}
