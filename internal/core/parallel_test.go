package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestPredictParallelMegaJobAlone(t *testing.T) {
	plan := &Plan{
		Nodes:  []NodeInfo{{Name: "n", CPUs: 2, Speed: 1}},
		Runs:   []Run{{Name: "mega", Work: 1000, Width: 2}},
		Assign: map[string]string{"mega": "n"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["mega"], 500) {
		t.Fatalf("mega completes at %v, want 500 (2 CPUs)", pred.Completion["mega"])
	}
}

func TestPredictMegaJobWithSerialNeighbors(t *testing.T) {
	// 2 CPUs: serial (work 100) + mega width 2 (work 300). Max-min: both
	// rate 1 until serial done at 100; mega then rate 2 for remaining 200
	// → done at 200.
	plan := &Plan{
		Nodes: []NodeInfo{{Name: "n", CPUs: 2, Speed: 1}},
		Runs: []Run{
			{Name: "serial", Work: 100},
			{Name: "mega", Work: 300, Width: 2},
		},
		Assign: map[string]string{"serial": "n", "mega": "n"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["serial"], 100) || !almost(pred.Completion["mega"], 200) {
		t.Fatalf("completions = %v", pred.Completion)
	}
}

func TestPredictWidthClampedToCPUs(t *testing.T) {
	plan := &Plan{
		Nodes:  []NodeInfo{{Name: "n", CPUs: 2, Speed: 1}},
		Runs:   []Run{{Name: "wide", Work: 1000, Width: 16}},
		Assign: map[string]string{"wide": "n"},
	}
	pred, err := plan.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pred.Completion["wide"], 500) {
		t.Fatalf("completion = %v, want 500 (clamped to 2 CPUs)", pred.Completion["wide"])
	}
}

func TestValidateRejectsNegativeWidth(t *testing.T) {
	plan := &Plan{
		Nodes:  []NodeInfo{{Name: "n", CPUs: 2, Speed: 1}},
		Runs:   []Run{{Name: "r", Work: 10, Width: -1}},
		Assign: map[string]string{"r": "n"},
	}
	if err := plan.Validate(); err == nil {
		t.Fatal("negative width accepted")
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

// Property: with mega-jobs in the mix, the analytic predictor still
// matches the discrete-event simulator's water-filling.
func TestPropertyPredictorMatchesSimulatorWithWidths(t *testing.T) {
	f := func(worksRaw []uint16, widthsRaw []uint8, cpusRaw uint8) bool {
		n := len(worksRaw)
		if n == 0 || n > 6 || len(widthsRaw) < n {
			return true
		}
		cpus := int(cpusRaw%4) + 1
		node := NodeInfo{Name: "n", CPUs: cpus, Speed: 1}

		runs := make([]Run, n)
		assign := make(map[string]string, n)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			runs[i] = Run{
				Name:  name,
				Work:  float64(worksRaw[i]%5000) + 1,
				Width: int(widthsRaw[i]%3) + 1,
			}
			assign[name] = "n"
		}
		plan := &Plan{Nodes: []NodeInfo{node}, Runs: runs, Assign: assign}
		pred, err := plan.Predict()
		if err != nil {
			return false
		}

		eng := sim.NewEngine()
		cl := cluster.New(eng)
		cn := cl.AddNode("n", cpus, 1)
		simDone := make(map[string]float64, n)
		for _, r := range runs {
			r := r
			cn.SubmitParallel(r.Name, r.Work, r.Width, func() { simDone[r.Name] = eng.Now() })
		}
		eng.Run()

		for _, r := range runs {
			a, b := pred.Completion[r.Name], simDone[r.Name]
			if math.Abs(a-b) > 1e-6*math.Max(1, b) {
				t.Logf("run %s (width %d): predictor %v vs simulator %v", r.Name, r.Width, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
