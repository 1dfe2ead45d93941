package ondemand

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

func plant() []core.NodeInfo {
	return []core.NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1},
		{Name: "n2", CPUs: 2, Speed: 1},
	}
}

// tightStock loads both nodes so any naive extra work makes a deadline
// slip: each node runs two serial jobs that finish just before midnight.
func tightStock() ([]core.Run, map[string]string) {
	runs := []core.Run{
		{Name: "s1", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s2", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s3", Work: 80000, Start: 3600, Deadline: 86400},
		{Name: "s4", Work: 80000, Start: 3600, Deadline: 86400},
	}
	assign := map[string]string{"s1": "n1", "s2": "n1", "s3": "n2", "s4": "n2"}
	return runs, assign
}

// looseStock leaves plenty of headroom.
func looseStock() ([]core.Run, map[string]string) {
	runs := []core.Run{
		{Name: "s1", Work: 30000, Start: 3600, Deadline: 86400},
		{Name: "s2", Work: 30000, Start: 3600, Deadline: 86400},
	}
	assign := map[string]string{"s1": "n1", "s2": "n2"}
	return runs, assign
}

func TestDeadlineAwareAdmitsWithHeadroom(t *testing.T) {
	runs, assign := looseStock()
	res, err := Run(Config{
		Nodes:  plant(),
		Stock:  runs,
		Assign: assign,
		Requests: []Request{
			{ID: "r1", Arrival: 20000, Work: 5000},
			{ID: "r2", Arrival: 25000, Work: 5000},
		},
		Policy: DeadlineAwarePolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(Admitted) != 2 {
		t.Fatalf("admitted %d of 2: %+v", res.Count(Admitted), res.Requests)
	}
	if len(res.StockLate) != 0 {
		t.Fatalf("stock late: %v", res.StockLate)
	}
	for _, rr := range res.Requests {
		if math.IsNaN(rr.Completed) {
			t.Fatalf("request %s never completed", rr.Request.ID)
		}
	}
}

func TestDeadlineAwareProtectsStockUnderLoad(t *testing.T) {
	runs, assign := tightStock()
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{
			ID:      fmt.Sprintf("r%d", i),
			Arrival: 20000 + float64(i)*1000,
			Work:    20000,
		})
	}
	res, err := Run(Config{
		Nodes:    plant(),
		Stock:    runs,
		Assign:   assign,
		Requests: reqs,
		Policy:   DeadlineAwarePolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StockLate) != 0 {
		t.Fatalf("deadline-aware policy made stock late: %v", res.StockLate)
	}
	if res.Count(Deferred) == 0 {
		t.Fatal("expected deferrals under a tight stock load")
	}
	// Deferred requests still complete eventually (night shift).
	for _, rr := range res.Requests {
		if rr.Outcome == Deferred && math.IsNaN(rr.Completed) {
			t.Fatalf("deferred request %s never ran", rr.Request.ID)
		}
		if rr.Outcome == Deferred && rr.Started < 83600 {
			t.Fatalf("deferred request %s started at %v, before stock drained", rr.Request.ID, rr.Started)
		}
	}
}

func TestGreedyMakesStockLateUnderSameLoad(t *testing.T) {
	runs, assign := tightStock()
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{
			ID:      fmt.Sprintf("r%d", i),
			Arrival: 20000 + float64(i)*1000,
			Work:    20000,
		})
	}
	res, err := Run(Config{
		Nodes:    plant(),
		Stock:    runs,
		Assign:   assign,
		Requests: reqs,
		Policy:   GreedyPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(Admitted) != 6 {
		t.Fatalf("greedy admitted %d of 6", res.Count(Admitted))
	}
	if len(res.StockLate) == 0 {
		t.Fatal("greedy policy should have made made-to-stock runs late")
	}
}

func TestGreedyLowerLatencyAtStockExpense(t *testing.T) {
	runs, assign := tightStock()
	reqs := []Request{{ID: "r", Arrival: 20000, Work: 20000}}
	greedy, err := Run(Config{Nodes: plant(), Stock: runs, Assign: assign, Requests: reqs, Policy: GreedyPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Run(Config{Nodes: plant(), Stock: runs, Assign: assign, Requests: reqs, Policy: DeadlineAwarePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.MeanLatency() >= aware.MeanLatency() {
		t.Fatalf("greedy latency %v should beat deadline-aware %v (that is its one virtue)",
			greedy.MeanLatency(), aware.MeanLatency())
	}
}

func TestDefaultPolicyIsDeadlineAware(t *testing.T) {
	runs, assign := looseStock()
	res, err := Run(Config{
		Nodes:    plant(),
		Stock:    runs,
		Assign:   assign,
		Requests: []Request{{ID: "r", Arrival: 10000, Work: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests[0].Outcome != Admitted {
		t.Fatalf("outcome = %v", res.Requests[0].Outcome)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	_, err := Run(Config{
		Nodes:  plant(),
		Stock:  []core.Run{{Name: "s", Work: -1}},
		Assign: map[string]string{"s": "n1"},
	})
	if err == nil {
		t.Fatal("invalid stock accepted")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Admitted, Deferred, Rejected, Outcome(9)} {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
	if (GreedyPolicy{}).String() == "" || (DeadlineAwarePolicy{}).String() == "" {
		t.Fatal("empty policy name")
	}
}

func TestNoRequests(t *testing.T) {
	runs, assign := looseStock()
	res, err := Run(Config{Nodes: plant(), Stock: runs, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 0 || len(res.StockLate) != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !math.IsNaN(res.MeanLatency()) {
		t.Fatal("MeanLatency of empty set should be NaN")
	}
}

// Regression: a made-to-stock run wedged on a down node never completes;
// it must still be flagged late rather than silently missing from
// StockLate (the missing map entry used to read as completion at t=0).
func TestWedgedStockRunFlaggedLate(t *testing.T) {
	nodes := []core.NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1},
		{Name: "n2", CPUs: 2, Speed: 1, Down: true},
	}
	runs := []core.Run{
		{Name: "s1", Work: 30000, Start: 3600, Deadline: 86400},
		{Name: "s2", Work: 30000, Start: 3600, Deadline: 86400},
	}
	assign := map[string]string{"s1": "n1", "s2": "n2"}
	res, err := Run(Config{Nodes: nodes, Stock: runs, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	if _, finished := res.StockCompletion["s2"]; finished {
		t.Fatal("s2 completed on a node that is down for the whole horizon")
	}
	if len(res.StockLate) != 1 || res.StockLate[0] != "s2" {
		t.Fatalf("StockLate = %v, want [s2]", res.StockLate)
	}
}

// Node states hold for the whole day: with every node down and no stock
// to wait for, the night shift's first poll (at 300 s) finds no node for
// the request deferred before it, which never runs, and the day still
// ends.
func TestDeferredSurvivesAllNodesDownAtDrain(t *testing.T) {
	nodes := []core.NodeInfo{
		{Name: "n1", CPUs: 2, Speed: 1, Down: true},
		{Name: "n2", CPUs: 2, Speed: 1, Down: true},
	}
	res, err := Run(Config{
		Nodes:    nodes,
		Requests: []Request{{ID: "r", Arrival: 100, Work: 20000}},
		Policy:   DeadlineAwarePolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Requests[0]
	if rr.Outcome != Deferred {
		t.Fatalf("outcome = %v, want deferred", rr.Outcome)
	}
	if !math.IsNaN(rr.Completed) || rr.Node != "" {
		t.Fatalf("request ran on %q at %v with every node down", rr.Node, rr.Completed)
	}
}

// Direct coverage of the Predict-error continue: a stock plan that fails
// validation (assignment to an unknown node) errors in every trial, so no
// node is chosen.
func TestDecideSkipsNodesOnPredictError(t *testing.T) {
	nodes := []core.NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}}
	stock := &core.Plan{
		Nodes:  nodes,
		Runs:   []core.Run{{Name: "s", Work: 1000, Start: 0}},
		Assign: map[string]string{"s": "ghost"},
	}
	st := &State{Now: 0, Nodes: nodes, Stock: stock, Active: map[string]int{"n1": 1}}

	node, out := DeadlineAwarePolicy{}.Decide(Request{ID: "r", Work: 100}, st)
	if node != "" || out != Deferred {
		t.Fatalf("decide = (%q, %v), want deferred when every Predict errors", node, out)
	}
}
