package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

func plant(n int) []NodeInfo {
	nodes := make([]NodeInfo, n)
	for i := range nodes {
		nodes[i] = NodeInfo{Name: string(rune('a' + i)), CPUs: 2, Speed: 1.0}
	}
	return nodes
}

func mkRuns(works ...float64) []Run {
	runs := make([]Run, len(works))
	for i, w := range works {
		runs[i] = Run{Name: string(rune('p' + i)), Work: w, Deadline: 86400}
	}
	return runs
}

func TestStayPutHonorsPreviousNode(t *testing.T) {
	nodes := plant(3)
	runs := mkRuns(100, 100)
	runs[0].PrevNode = "c"
	runs[1].PrevNode = "b"
	assign, err := Pack(nodes, runs, StayPut)
	if err != nil {
		t.Fatal(err)
	}
	if assign[runs[0].Name] != "c" || assign[runs[1].Name] != "b" {
		t.Fatalf("assign = %v", assign)
	}
}

func TestStayPutFallsBackWhenPrevNodeGone(t *testing.T) {
	nodes := plant(2)
	nodes[1].Down = true
	runs := mkRuns(100)
	runs[0].PrevNode = "b" // down
	assign, err := Pack(nodes, runs, StayPut)
	if err != nil {
		t.Fatal(err)
	}
	if assign[runs[0].Name] != "a" {
		t.Fatalf("assign = %v", assign)
	}
}

func TestFFDSpreadsOverflow(t *testing.T) {
	// Two nodes, window capacity 2 CPUs × 86400 = 172800 each. Three runs
	// of 100k: FFD puts the first on a, second still fits a (wait: 200k >
	// 172800, does not fit) → b, third → a is full, b is full → least
	// loaded.
	nodes := plant(2)
	runs := mkRuns(100000, 100000, 100000)
	assign, err := Pack(nodes, runs, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, n := range assign {
		counts[n]++
	}
	if counts["a"]+counts["b"] != 3 || counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestWFDBalancesLoad(t *testing.T) {
	nodes := plant(3)
	runs := mkRuns(300, 200, 100, 100, 100)
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{}
	byName := map[string]Run{}
	for _, r := range runs {
		byName[r.Name] = r
		load[assign[r.Name]] += r.Work
	}
	// Perfect balance exists (300 | 200+100 | 100+100); WFD should land
	// within a modest spread.
	for _, l := range load {
		if l < 200 || l > 400 {
			t.Fatalf("unbalanced loads: %v", load)
		}
	}
}

func TestBFDTightensFit(t *testing.T) {
	// BFD places each run on the node with least remaining slack; with a
	// big run on node a, a second small run should co-locate on a only if
	// it still fits; here windows are tight so it goes where the fit is
	// tightest but feasible.
	nodes := plant(2)
	runs := []Run{
		{Name: "big", Work: 150000, Deadline: 86400},
		{Name: "small", Work: 10000, Deadline: 86400},
	}
	assign, err := Pack(nodes, runs, BestFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	// Node a after big: slack = 172800-150000-10000 = 12800; node b slack
	// = 172800-10000. BFD picks the tighter fit: a.
	if assign["small"] != assign["big"] {
		t.Fatalf("assign = %v, want co-located (tightest fit)", assign)
	}
}

func TestPackSkipsDownNodes(t *testing.T) {
	nodes := plant(3)
	nodes[0].Down = true
	runs := mkRuns(100, 100, 100, 100)
	for _, h := range []Heuristic{StayPut, FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing} {
		assign, err := Pack(nodes, runs, h)
		if err != nil {
			t.Fatal(err)
		}
		for run, node := range assign {
			if node == "a" {
				t.Fatalf("%v assigned %s to down node", h, run)
			}
		}
	}
}

func TestPackAllNodesDownFails(t *testing.T) {
	nodes := plant(1)
	nodes[0].Down = true
	if _, err := Pack(nodes, mkRuns(10), FirstFitDecreasing); err == nil {
		t.Fatal("packing onto a dead plant succeeded")
	}
}

func TestPackUnknownHeuristicFails(t *testing.T) {
	if _, err := Pack(plant(1), mkRuns(10), Heuristic(99)); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestPackInvalidInputFails(t *testing.T) {
	runs := mkRuns(10)
	runs[0].Work = -1
	if _, err := Pack(plant(1), runs, FirstFitDecreasing); err == nil {
		t.Fatal("invalid run accepted")
	}
}

func TestHeuristicStrings(t *testing.T) {
	for _, h := range []Heuristic{StayPut, FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing, Heuristic(9)} {
		if h.String() == "" {
			t.Fatal("empty heuristic name")
		}
	}
}

// A deadline-less run starting past the first production day (Start ≥
// 86400) must keep a positive packing window ("rest of the day it starts
// in"), not a negative one that fails every fit and silently falls back
// to the least-loaded node.
func TestSlackWindowLateStartFFD(t *testing.T) {
	// big lands on a; the late run's window is 86400-mod(90000,86400) =
	// 82800, so a has slack 2·82800-150000-10000 = 5600 ≥ 0 and first-fit
	// keeps it on a. The negative-window bug sent it to least-loaded b.
	nodes := plant(2)
	runs := []Run{
		{Name: "big", Work: 150000, Deadline: 86400},
		{Name: "late", Work: 10000, Start: 90000},
	}
	assign, err := Pack(nodes, runs, FirstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if assign["big"] != "a" || assign["late"] != "a" {
		t.Fatalf("assign = %v, want both on a", assign)
	}
}

func TestSlackWindowLateStartBFD(t *testing.T) {
	// Same plant: a's slack 5600 beats b's 2·82800-10000 = 155600 for the
	// tightest fit; the bug's least-loaded fallback picked b.
	nodes := plant(2)
	runs := []Run{
		{Name: "big", Work: 150000, Deadline: 86400},
		{Name: "late", Work: 10000, Start: 90000},
	}
	assign, err := Pack(nodes, runs, BestFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if assign["late"] != "a" {
		t.Fatalf("assign = %v, want late co-located on a (tightest fit)", assign)
	}
}

func TestSlackWindowLateStartWFD(t *testing.T) {
	// Unequal capacities make worst-fit and least-loaded disagree: r1→a,
	// r2→b, then the late run sees slack 3·82800-130000 = 118400 on a vs
	// 2·82800-70000 = 95600 on b → worst fit picks a. The bug's fallback
	// compared normalized loads (a: 40000, b: 30000) and picked b.
	nodes := []NodeInfo{
		{Name: "a", CPUs: 3, Speed: 1},
		{Name: "b", CPUs: 2, Speed: 1},
	}
	runs := []Run{
		{Name: "r1", Work: 120000, Deadline: 86400},
		{Name: "r2", Work: 60000, Deadline: 86400},
		{Name: "late", Work: 10000, Start: 90000},
	}
	assign, err := Pack(nodes, runs, WorstFitDecreasing)
	if err != nil {
		t.Fatal(err)
	}
	if assign["r1"] != "a" || assign["r2"] != "b" {
		t.Fatalf("setup assign = %v, want r1→a r2→b", assign)
	}
	if assign["late"] != "a" {
		t.Fatalf("assign = %v, want late on a (most slack)", assign)
	}
}

func TestLoadIndex(t *testing.T) {
	nodes := []NodeInfo{
		{Name: "c", CPUs: 2, Speed: 1},
		{Name: "a", CPUs: 2, Speed: 1},
		{Name: "dead", CPUs: 8, Speed: 1, Down: true},
		{Name: "b", CPUs: 4, Speed: 1},
	}
	ix := newLoadIndex(nodes)
	if _, ok := ix.index["dead"]; ok || len(ix.nodes) != 3 {
		t.Fatalf("indexed %v, want the three up nodes", ix.nodes)
	}
	if n, ok := ix.least(); !ok || n.Name != "a" {
		t.Fatalf("least of zero loads = %v, want a (name tiebreak)", n.Name)
	}
	ix.add("dead", 100) // no-op
	ix.add("a", 100)    // a: 50/cpu, b: 0, c: 0
	if n, _ := ix.least(); n.Name != "b" {
		t.Fatalf("least = %v, want b", n.Name)
	}
	ix.add("b", 400) // a: 50, b: 100, c: 0
	if n, _ := ix.least(); n.Name != "c" {
		t.Fatalf("least = %v, want c", n.Name)
	}
	ix.add("c", 200) // a: 50, b: 100, c: 100 → tie b/c breaks by name
	if n, _ := ix.least(); n.Name != "a" {
		t.Fatalf("least = %v, want a", n.Name)
	}
	if !slices.Equal(ix.loads, []float64{100, 400, 200}) { // a, b, c: the charge to dead went nowhere
		t.Fatalf("loads in name order = %v, want [100 400 200]", ix.loads)
	}
	if i, ok := ix.index["c"]; !ok || ix.nodes[i].Name != "c" || ix.nodes[i].CPUs != 2 {
		t.Fatal("node lookup failed")
	}
	empty := newLoadIndex([]NodeInfo{{Name: "x", CPUs: 1, Speed: 1, Down: true}})
	if _, ok := empty.least(); ok {
		t.Fatal("least on empty index succeeded")
	}
}

// Property: every heuristic assigns every run to an up node.
func TestPropertyPackTotalAndValid(t *testing.T) {
	f := func(worksRaw []uint16, hRaw uint8, downRaw uint8) bool {
		if len(worksRaw) == 0 || len(worksRaw) > 12 {
			return true
		}
		nodes := plant(4)
		down := int(downRaw % 3) // leave at least one node up
		for i := 0; i < down; i++ {
			nodes[i].Down = true
		}
		runs := make([]Run, len(worksRaw))
		for i, w := range worksRaw {
			runs[i] = Run{Name: string(rune('p' + i)), Work: float64(w), Deadline: 86400}
		}
		h := Heuristic(hRaw % 4)
		assign, err := Pack(nodes, runs, h)
		if err != nil {
			return false
		}
		if len(assign) != len(runs) {
			return false
		}
		for _, nodeName := range assign {
			n, ok := nodeByName(nodes, nodeName)
			if !ok || n.Down {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for equal-size runs, WFD never loads one node with two more
// runs than another (balance).
func TestPropertyWFDBalance(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		nodes := plant(4)
		runs := make([]Run, n)
		for i := range runs {
			runs[i] = Run{Name: string(rune('A' + i)), Work: 1000, Deadline: 86400}
		}
		assign, err := Pack(nodes, runs, WorstFitDecreasing)
		if err != nil {
			return false
		}
		counts := map[string]int{}
		for _, node := range assign {
			counts[node]++
		}
		minC, maxC := n, 0
		for _, node := range nodes {
			c := counts[node.Name]
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		return maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// packCase decodes a Pack input from bytes, for the seeded and fuzzed
// comparisons with referencePack; missing bytes read as zero. The first
// byte picks the regime: bit 0 gives every node the same capacity, bit 1
// draws works from four values, zero among them, so that equal works
// break by name and equal loads by node name, and bit 2 scales works past
// any window, so that runs fit nowhere and go to the least-loaded node.
// Then come the nodes (capacity, down, a name whose order differs from
// the input order) and the runs (work, a start up to ~3 days, a deadline
// that is zero, negative or after the start, and a previous node that may
// be gone).
func packCase(data []byte) ([]NodeInfo, []Run) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	mode := next()
	speeds := []float64{0.5, 1, 1.25, 1.5}
	nodes := make([]NodeInfo, 1+next()%8)
	for i := range nodes {
		b := next()
		n := NodeInfo{Name: fmt.Sprintf("n%d-%d", next()%8, i), CPUs: 2, Speed: 1, Down: b%5 == 0}
		if mode&1 == 0 {
			n.CPUs = 1 + (b>>3)%4
			n.Speed = speeds[(b>>5)%4]
		}
		nodes[i] = n
	}
	runs := make([]Run, next()%48)
	for i := range runs {
		r := Run{Name: fmt.Sprintf("r%02d-%d", next()%16, i)}
		if mode&2 != 0 {
			r.Work = float64(next()%4) * 30000
		} else {
			r.Work = float64(next()) * float64(next()) * 5
		}
		if mode&4 != 0 {
			r.Work *= 8
		}
		r.Start = float64(next()) * 1000
		switch d := next(); {
		case d >= 64:
			r.Deadline = r.Start + float64(d)*600
		case d%2 == 1:
			r.Deadline = -float64(d)
		}
		if p := next() % (len(nodes) + 1); p < len(nodes) {
			r.PrevNode = nodes[p].Name
		} else {
			r.PrevNode = "gone"
		}
		runs[i] = r
	}
	return nodes, runs
}

// packDiff runs Pack and referencePack on one input and describes how
// they differ: the assignment, the error, or the fit evaluations each
// adds to core_pack_iterations_total. It returns "" when they agree, and
// Pack's fit evaluations.
func packDiff(reg *telemetry.Registry, nodes []NodeInfo, runs []Run, h Heuristic) (string, float64) {
	iters := func() float64 { return reg.Counter("core_pack_iterations_total", nil).Value() }
	before := iters()
	want, wantErr := referencePack(nodes, runs, h)
	mid := iters()
	got, gotErr := Pack(nodes, runs, h)
	after := iters()
	switch {
	case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
		return fmt.Sprintf("%v: error %v, reference %v", h, gotErr, wantErr), 0
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("%v: assignment %v, reference %v", h, got, want), 0
	case after-mid != mid-before:
		return fmt.Sprintf("%v: %v fit evaluations, reference %v", h, after-mid, mid-before), 0
	}
	return "", after - mid
}

var packHeuristics = []Heuristic{StayPut, FirstFitDecreasing, BestFitDecreasing, WorstFitDecreasing}

// TestPackMatchesReference holds Pack's dense fit scan and index-keyed
// heap to the by-name implementation they replaced: the same assignment
// and the same fit-evaluation count, for every heuristic over 512 seeded
// plants. It also checks that the seeds reach every case the two could
// disagree on.
func TestPackMatchesReference(t *testing.T) {
	tel := telemetry.New()
	SetTelemetry(tel)
	defer SetTelemetry(nil)
	reg := tel.Registry()

	var equalCaps, mixedCaps, down, workTies, lateNoDeadline, zeroWork, fallbacks int
	for seed := int64(0); seed < 512; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 8+rng.Intn(400))
		rng.Read(data)
		data[0] = byte(seed % 8)
		nodes, runs := packCase(data)
		up := 0
		for _, n := range nodes {
			if !n.Down {
				up++
			}
		}
		for _, h := range packHeuristics {
			diff, iters := packDiff(reg, nodes, runs, h)
			if diff != "" {
				t.Fatalf("seed %d: %s", seed, diff)
			}
			if h == WorstFitDecreasing {
				// Every run scans every up node; the rest are fallbacks.
				fallbacks += int(iters) - len(runs)*up
			}
		}
		switch {
		case len(nodes) < 2:
		case data[0]&1 != 0:
			equalCaps++
		default:
			mixedCaps++
		}
		if up < len(nodes) {
			down++
		}
		seen := map[float64]bool{}
		for _, r := range runs {
			if seen[r.Work] {
				workTies++
			}
			seen[r.Work] = true
			if r.Deadline <= 0 && r.Start >= 86400 {
				lateNoDeadline++
			}
			if r.Work == 0 {
				zeroWork++
			}
		}
	}
	for name, n := range map[string]int{
		"equal capacities": equalCaps, "mixed capacities": mixedCaps, "down nodes": down,
		"equal works": workTies, "no deadline, start past day 1": lateNoDeadline,
		"zero work": zeroWork, "least-loaded fallbacks": fallbacks,
	} {
		if n == 0 {
			t.Errorf("no seed reached %s", name)
		}
	}
}

// FuzzPackMatchesReference is TestPackMatchesReference on fuzzed plants;
// `make fuzz` runs it for 60 s, and its seeds, one per regime, run in the
// tier-1 suite.
func FuzzPackMatchesReference(f *testing.F) {
	for mode := byte(0); mode < 8; mode++ {
		f.Add([]byte{mode, 3, 17, 2, 99, 5, 200, 7, 40, 12, 3, 1, 90, 70, 8, 4, 255, 0, 66, 9, 130, 2, 11, 150, 33, 1})
	}
	tel := telemetry.New()
	SetTelemetry(tel)
	defer SetTelemetry(nil)
	reg := tel.Registry()
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, runs := packCase(data)
		for _, h := range packHeuristics {
			if diff, _ := packDiff(reg, nodes, runs, h); diff != "" {
				t.Fatal(diff)
			}
		}
	})
}

// BenchmarkPack times one worst-fit-decreasing Pack on the planning
// session's plant: 200 nodes of 2 or 4 CPUs at speeds 1, 1.25 and 1.5,
// and 2000 runs.
func BenchmarkPack(b *testing.B) {
	nodes, runs := sessionPlant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(nodes, runs, WorstFitDecreasing); err != nil {
			b.Fatal(err)
		}
	}
}
