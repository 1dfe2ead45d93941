package usage

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/statsdb"
	"repro/internal/telemetry"
)

const eps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) < eps }

// TestSamplerExactTimeline is the paper's §4.1 sharing example driven
// through the sampler: 3 jobs of 1000 reference CPU-seconds on a 2-CPU
// node all finish at 1500 with share 2/3, and every 600-second bucket
// must integrate that trajectory exactly.
func TestSamplerExactTimeline(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 2, 1.0)
	s := NewSampler(c, Options{Interval: 600})
	for _, label := range []string{"a", "b", "c"} {
		n.Submit(label, 1000, nil)
	}
	s.Start(2400)
	e.RunUntil(2400)
	s.Finalize(e.Now())

	samples := s.Samples()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4: %+v", len(samples), samples)
	}
	want := []Sample{
		{Node: "n", Start: 0, End: 600, Utilization: 1, MeanShare: 2.0 / 3, MeanActive: 3, PeakActive: 3, ContentionSecs: 600},
		{Node: "n", Start: 600, End: 1200, Utilization: 1, MeanShare: 2.0 / 3, MeanActive: 3, PeakActive: 3, ContentionSecs: 600},
		{Node: "n", Start: 1200, End: 1800, Utilization: 0.5, MeanShare: 2.0 / 3, MeanActive: 1.5, PeakActive: 3, ContentionSecs: 300, IdleSecs: 300},
		{Node: "n", Start: 1800, End: 2400, Utilization: 0, MeanShare: 1, MeanActive: 0, PeakActive: 0, IdleSecs: 600},
	}
	for i, w := range want {
		g := samples[i]
		if g.Node != w.Node || !almost(g.Start, w.Start) || !almost(g.End, w.End) ||
			!almost(g.Utilization, w.Utilization) || !almost(g.MeanShare, w.MeanShare) ||
			!almost(g.MeanActive, w.MeanActive) || g.PeakActive != w.PeakActive ||
			!almost(g.ContentionSecs, w.ContentionSecs) || !almost(g.IdleSecs, w.IdleSecs) ||
			!almost(g.DownSecs, w.DownSecs) {
			t.Errorf("sample %d = %+v, want %+v", i, g, w)
		}
	}

	windows := s.Windows()
	if len(windows) != 2 {
		t.Fatalf("got %d windows, want contention+idle: %+v", len(windows), windows)
	}
	cw, iw := windows[0], windows[1]
	if cw.Kind != WindowContention || !almost(cw.Start, 0) || !almost(cw.End, 1500) ||
		cw.PeakActive != 3 || !almost(cw.MeanShare, 2.0/3) {
		t.Errorf("contention window = %+v, want [0,1500] peak 3 share 2/3", cw)
	}
	if iw.Kind != WindowIdle || !almost(iw.Start, 1500) || !almost(iw.End, 2400) {
		t.Errorf("idle window = %+v, want [1500,2400]", iw)
	}
}

// TestWindowMergeAcrossChurn: a job finishing and its successor starting
// at the same virtual instant must not split the contention window — the
// factory's incremental workloads do this 96 times per run.
func TestWindowMergeAcrossChurn(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 1, 1.0)
	s := NewSampler(c, Options{Interval: 600})
	// A (100) and B (1000) share the single CPU; A finishes at 200 and
	// its done callback submits C at the same instant, so contention
	// closes and reopens at t=200 with zero gap.
	n.Submit("a", 100, func() { n.Submit("c", 2000, nil) })
	n.Submit("b", 1000, nil)
	e.Run()
	s.Finalize(e.Now())

	var cont []Window
	for _, w := range s.Windows() {
		if w.Kind == WindowContention {
			cont = append(cont, w)
		}
	}
	if len(cont) != 1 {
		t.Fatalf("got %d contention windows, want 1 merged: %+v", len(cont), cont)
	}
	// B finishes at 2000 (share 1/2 throughout); the merged window spans
	// [0, 2000] even though contention churned at 200.
	w := cont[0]
	if !almost(w.Start, 0) || !almost(w.End, 2000) || w.PeakActive != 2 || !almost(w.MeanShare, 0.5) {
		t.Errorf("merged window = %+v, want [0,2000] peak 2 share 0.5", w)
	}
}

// TestSeparateWindowsAcrossRealGap: contention separated by positive
// uncontended sim-time stays two windows.
func TestSeparateWindowsAcrossRealGap(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 1, 1.0)
	s := NewSampler(c, Options{Interval: 600})
	n.Submit("a", 100, nil)
	n.Submit("b", 100, nil) // both done at 200; contention [0,200]
	e.Scope("test").At(300, func() {
		n.Submit("c", 100, nil)
		n.Submit("d", 100, nil) // contention [300,500]
	})
	e.Run()
	s.Finalize(e.Now())
	var cont []Window
	for _, w := range s.Windows() {
		if w.Kind == WindowContention {
			cont = append(cont, w)
		}
	}
	if len(cont) != 2 {
		t.Fatalf("got %d contention windows, want 2: %+v", len(cont), cont)
	}
	if !almost(cont[0].Start, 0) || !almost(cont[0].End, 200) ||
		!almost(cont[1].Start, 300) || !almost(cont[1].End, 500) {
		t.Errorf("windows = %+v, want [0,200] and [300,500]", cont)
	}
}

// TestDownNodeAccounting: failed time lands in DownSecs and closes any
// open contention window.
func TestDownNodeAccounting(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 1, 1.0)
	s := NewSampler(c, Options{Interval: 1000})
	n.Submit("a", 200, nil)
	n.Submit("b", 200, nil) // contended from 0
	e.Scope("test").At(100, func() { n.Fail() })
	e.Scope("test").At(400, func() { n.Repair() })
	e.Run() // jobs freeze 100..400, finish at 100+300(down)+300 = 700
	s.Finalize(1000)

	samples := s.Samples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	g := samples[0]
	if !almost(g.DownSecs, 300) || !almost(g.ContentionSecs, 400) || !almost(g.IdleSecs, 300) {
		t.Errorf("sample = %+v, want down 300 / contention 400 / idle 300", g)
	}
	// The fail at 100 closes the first contention stretch; repair reopens
	// it. Both survive (separated by down time, not a zero gap).
	var cont []Window
	for _, w := range s.Windows() {
		if w.Kind == WindowContention {
			cont = append(cont, w)
		}
	}
	if len(cont) != 2 || !almost(cont[0].End, 100) || !almost(cont[1].Start, 400) {
		t.Errorf("contention windows = %+v, want [0,100] and [400,700]", cont)
	}
}

// TestMeanShareOver integrates the flushed timeline.
func TestMeanShareOver(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 2, 1.0)
	s := NewSampler(c, Options{Interval: 600})
	for _, label := range []string{"a", "b", "c"} {
		n.Submit(label, 1000, nil)
	}
	e.RunUntil(2400)
	s.Finalize(e.Now())

	if got := s.MeanShareOver("n", 0, 1500); !almost(got, 2.0/3) {
		t.Errorf("MeanShareOver(0,1500) = %v, want 2/3", got)
	}
	if got := s.MeanShareOver("n", 1800, 2400); !almost(got, 1) {
		t.Errorf("MeanShareOver over idle time = %v, want 1", got)
	}
	if got := s.MeanShareOver("nosuch", 0, 1); !almost(got, 1) {
		t.Errorf("MeanShareOver on unknown node = %v, want 1", got)
	}

	checkLookupsAgainstScan(t, 1)
	checkLookupsAgainstScan(t, 2)
}

// scanOver integrates one node's samples over [start, end] by a full
// scan of the timeline: the answers MeanShareOver and DownSecsOver must
// give, summed in the same order.
func scanOver(samples []Sample, node string, start, end float64) (share, down float64) {
	if end <= start {
		return 1, 0
	}
	var shareInt, runSecs float64
	for _, sm := range samples {
		lo, hi := math.Max(sm.Start, start), math.Min(sm.End, end)
		if sm.Node != node || hi <= lo {
			continue
		}
		frac := (hi - lo) / (sm.End - sm.Start)
		run := (sm.End - sm.Start - sm.IdleSecs - sm.DownSecs) * frac
		shareInt += sm.MeanShare * run
		runSecs += run
		down += sm.DownSecs * (hi - lo) / (sm.End - sm.Start)
	}
	if runSecs <= 0 {
		return 1, down
	}
	return shareInt / runSecs, down
}

// checkLookupsAgainstScan samples a seeded random campaign — a node
// added mid-run, another failed and repaired, Finalize mid-bucket — and
// checks MeanShareOver and DownSecsOver on random windows against a full
// scan of Samples(), and Status()'s grid against each node's last
// StatusCols samples.
func checkLookupsAgainstScan(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	c := cluster.New(e)
	a, f := c.AddNode("a", 2, 1.0), c.AddNode("f", 1, 1.5)
	s := NewSampler(c, Options{Interval: 100, StatusCols: 7})
	s.Start(3000)
	test := e.Scope("test")
	nodes := []*cluster.Node{a, f}
	test.At(730, func() { nodes = append(nodes, c.AddNode("b", 3, 0.5)) })
	test.At(1210, f.Fail)
	test.At(1655, f.Repair)
	for i := 0; i < 60; i++ {
		at, work := 2800*rng.Float64(), 20+400*rng.Float64()
		pick := rng.Intn(3)
		test.At(at, func() { nodes[pick%len(nodes)].Submit("job", work, nil) })
	}
	e.RunUntil(2943.5)
	s.Finalize(e.Now())

	samples := s.Samples()
	for i := 0; i < 300; i++ {
		node := []string{"a", "b", "f"}[rng.Intn(3)]
		start := -100 + 3200*rng.Float64()
		end := start + 900*rng.Float64()
		if i%10 == 0 {
			end = start - 1 // empty window
		}
		wantShare, wantDown := scanOver(samples, node, start, end)
		if got := s.MeanShareOver(node, start, end); got != wantShare {
			t.Errorf("seed %d: MeanShareOver(%s, %v, %v) = %v, scan gives %v", seed, node, start, end, got, wantShare)
		}
		if got := s.DownSecsOver(node, start, end); got != wantDown {
			t.Errorf("seed %d: DownSecsOver(%s, %v, %v) = %v, scan gives %v", seed, node, start, end, got, wantDown)
		}
	}

	st := s.Status()
	for row, node := range st.Grid.Nodes {
		var own []Sample
		for _, sm := range samples {
			if sm.Node == node {
				own = append(own, sm)
			}
		}
		cols := len(st.Grid.Utilization[row])
		wantUtil, wantShare := make([]float64, cols), make([]float64, cols)
		for i := range wantShare {
			wantShare[i] = 1
		}
		for _, sm := range own[max(0, len(own)-cols):] {
			col := int(((sm.Start+sm.End)/2 - st.Grid.Start) / st.Grid.Step)
			wantUtil[col], wantShare[col] = sm.Utilization, sm.MeanShare
		}
		if !slices.Equal(st.Grid.Utilization[row], wantUtil) || !slices.Equal(st.Grid.Share[row], wantShare) {
			t.Errorf("seed %d: grid row %s = %v / %v, want the last %d samples %v / %v", seed, node,
				st.Grid.Utilization[row], st.Grid.Share[row], cols, wantUtil, wantShare)
		}
	}
}

// TestNodeAddedMidRun: a node that joins after the sampler starts is
// sampled from its add time, in buckets aligned with the other nodes',
// and takes its name-ordered row in the live grid.
func TestNodeAddedMidRun(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	c.AddNode("m", 1, 1.0)
	s := NewSampler(c, Options{Interval: 100})
	s.Start(600)
	e.Scope("test").At(250, func() {
		b := c.AddNode("b", 1, 1.0)
		b.Submit("x", 100, nil)
		b.Submit("y", 100, nil) // both at share 1/2 until 450
	})
	e.RunUntil(600)
	s.Finalize(e.Now())

	var got []Sample
	for _, sm := range s.Samples() {
		if sm.Node == "b" {
			got = append(got, sm)
		}
	}
	want := []Sample{
		{Node: "b", Start: 250, End: 300, Utilization: 1, MeanShare: 0.5, MeanActive: 2, PeakActive: 2, ContentionSecs: 50},
		{Node: "b", Start: 300, End: 400, Utilization: 1, MeanShare: 0.5, MeanActive: 2, PeakActive: 2, ContentionSecs: 100},
		{Node: "b", Start: 400, End: 500, Utilization: 0.5, MeanShare: 0.5, MeanActive: 1, PeakActive: 2, ContentionSecs: 50, IdleSecs: 50},
		{Node: "b", Start: 500, End: 600, MeanShare: 1, IdleSecs: 100},
	}
	if len(got) != len(want) {
		t.Fatalf("node b has %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if !almost(g.Start, w.Start) || !almost(g.End, w.End) || !almost(g.Utilization, w.Utilization) ||
			!almost(g.MeanShare, w.MeanShare) || !almost(g.MeanActive, w.MeanActive) || g.PeakActive != w.PeakActive ||
			!almost(g.ContentionSecs, w.ContentionSecs) || !almost(g.IdleSecs, w.IdleSecs) {
			t.Errorf("b sample %d = %+v, want %+v", i, g, w)
		}
	}

	var bw []Window
	for _, w := range s.Windows() {
		if w.Node == "b" {
			bw = append(bw, w)
		}
	}
	if len(bw) != 2 || bw[0].Kind != WindowContention || !almost(bw[0].Start, 250) || !almost(bw[0].End, 450) ||
		!almost(bw[0].MeanShare, 0.5) || bw[1].Kind != WindowIdle || !almost(bw[1].Start, 450) || !almost(bw[1].End, 600) {
		t.Errorf("b windows = %+v, want contention [250,450] share 0.5 and idle [450,600]", bw)
	}
	if got := s.MeanShareOver("b", 0, 600); !almost(got, 0.5) {
		t.Errorf("MeanShareOver(b) = %v, want 0.5", got)
	}

	st := s.Status()
	if len(st.Grid.Nodes) != 2 || st.Grid.Nodes[0] != "b" || st.Grid.Nodes[1] != "m" {
		t.Fatalf("grid nodes = %v, want [b m]", st.Grid.Nodes)
	}
	if !almost(st.Grid.Start, 0) || len(st.Grid.Utilization[0]) != 6 {
		t.Fatalf("grid start %v with %d cols, want 0 and 6", st.Grid.Start, len(st.Grid.Utilization[0]))
	}
	wantRow := []float64{0, 0, 1, 1, 0.5, 0}
	for i, w := range wantRow {
		if !almost(st.Grid.Utilization[0][i], w) {
			t.Fatalf("grid row b = %v, want %v", st.Grid.Utilization[0], wantRow)
		}
	}
	if !almost(st.Grid.Share[0][2], 0.5) || !almost(st.Grid.Share[0][0], 1) {
		t.Errorf("grid share row b = %v, want 1 before the add and 0.5 from column 2", st.Grid.Share[0])
	}
}

// timelineOf stores samples, in order, as one node's timeline.
func timelineOf(samples []Sample) series {
	var r series
	for i, sm := range samples {
		r.store = append(r.store, bucket{
			start: sm.Start, end: sm.End, utilization: sm.Utilization, meanShare: sm.MeanShare,
			meanActive: sm.MeanActive, peakActive: sm.PeakActive,
			contentionSecs: sm.ContentionSecs, idleSecs: sm.IdleSecs, downSecs: sm.DownSecs,
		})
		r.offs = append(r.offs, int32(i))
	}
	return r
}

// TestTimelineIntegrals integrates one node's timeline: share weighted
// by running time, down time pro-rated, and no samples' defaults.
func TestTimelineIntegrals(t *testing.T) {
	n1 := timelineOf([]Sample{
		{Node: "n1", Start: 0, End: 100, MeanShare: 1.0},
		{Node: "n1", Start: 100, End: 200, MeanShare: 0.5, DownSecs: 20},
	})
	// Full overlap of both samples: run time 100 + 80, share-weighted.
	want := (1.0*100 + 0.5*80) / 180
	if got := meanShareOver(n1, 0, 200); !almost(got, want) {
		t.Errorf("meanShareOver(n1, 0, 200) = %v, want %v", got, want)
	}
	// Half overlap of the second sample pro-rates run and down time.
	want = (1.0*100 + 0.5*40) / 140
	if got := meanShareOver(n1, 0, 150); !almost(got, want) {
		t.Errorf("meanShareOver(n1, 0, 150) = %v, want %v", got, want)
	}
	if got := downSecsOver(n1, 0, 150); !almost(got, 10) {
		t.Errorf("downSecsOver(n1, 0, 150) = %v, want 10", got)
	}
	// No samples: share 1, no down time.
	if meanShareOver(series{}, 0, 100) != 1 || downSecsOver(series{}, 0, 100) != 0 {
		t.Error("a node without samples must report share 1 and no down time")
	}
}

// TestSamplerTelemetry checks the gauges and counters the monitor's
// alert rules evaluate.
func TestSamplerTelemetry(t *testing.T) {
	tel := telemetry.New()
	e := sim.NewEngine()
	c := cluster.New(e)
	n1 := c.AddNode("n1", 1, 1.0)
	c.AddNode("n2", 1, 1.0)
	s := NewSampler(c, Options{Interval: 100, Telemetry: tel})
	reg := tel.Registry()

	n1.Submit("a", 1000, nil)
	n1.Submit("b", 1000, nil) // n1 contended, n2 idle → imbalance
	e.RunUntil(300)
	s.Tick()

	labels := telemetry.Labels{"node": "n1"}
	if got := reg.Gauge(MetricNodeShare, labels).Value(); !almost(got, 0.5) {
		t.Errorf("node share gauge = %v, want 0.5", got)
	}
	if got := reg.Gauge(MetricNodeActive, labels).Value(); !almost(got, 2) {
		t.Errorf("node active gauge = %v, want 2", got)
	}
	if got := reg.Gauge(MetricContentionAge, labels).Value(); !almost(got, 300) {
		t.Errorf("contention age = %v, want 300", got)
	}
	if got := reg.Gauge(MetricIdleWhileSat, nil).Value(); !almost(got, 1) {
		t.Errorf("idle-while-saturated = %v, want 1 (n2)", got)
	}
	if got := reg.Gauge(MetricImbalanceAge, nil).Value(); !almost(got, 300) {
		t.Errorf("imbalance age = %v, want 300", got)
	}
	if got := reg.Counter(MetricSamplesTotal, nil).Value(); !almost(got, 2*3) {
		t.Errorf("samples counter = %v, want 6 (2 nodes × 3 buckets)", got)
	}
	if got := reg.Counter(MetricContentionTotal, labels).Value(); !almost(got, 1) {
		t.Errorf("contention windows counter = %v, want 1", got)
	}
}

// TestStatusGrid checks the rolling dashboard snapshot: column cap and
// node summaries.
func TestStatusGrid(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 2, 1.0)
	s := NewSampler(c, Options{Interval: 100, StatusCols: 3})
	n.Submit("a", 1000, nil)
	s.Start(1000)
	e.RunUntil(1000)

	st := s.Status()
	if len(st.Grid.Nodes) != 1 || st.Grid.Nodes[0] != "n" {
		t.Fatalf("grid nodes = %v", st.Grid.Nodes)
	}
	if len(st.Grid.Utilization[0]) != 3 {
		t.Fatalf("grid cols = %d, want StatusCols cap 3", len(st.Grid.Utilization[0]))
	}
	// 10 buckets flushed; the grid shows the last 3, starting at 700.
	if !almost(st.Grid.Start, 700) {
		t.Errorf("grid start = %v, want 700", st.Grid.Start)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].CPUs != 2 {
		t.Errorf("node summaries = %+v", st.Nodes)
	}
}

// TestCondenseGrid checks the full-campaign heatmap re-bucketing:
// duration-weighted means, NaN for empty cells.
func TestCondenseGrid(t *testing.T) {
	samples := []Sample{
		{Node: "a", Start: 0, End: 100, Utilization: 1, MeanShare: 0.5},
		{Node: "a", Start: 100, End: 200, Utilization: 0, MeanShare: 1},
		{Node: "b", Start: 100, End: 200, Utilization: 0.5, MeanShare: 1},
	}
	g := CondenseGrid([]string{"a", "b"}, samples, 2)
	if !almost(g.Start, 0) || !almost(g.Step, 100) {
		t.Fatalf("grid origin = (%v, %v), want (0, 100)", g.Start, g.Step)
	}
	if !almost(g.Utilization[0][0], 1) || !almost(g.Utilization[0][1], 0) {
		t.Errorf("row a = %v, want [1 0]", g.Utilization[0])
	}
	if !math.IsNaN(g.Utilization[1][0]) || !almost(g.Utilization[1][1], 0.5) {
		t.Errorf("row b = %v, want [NaN 0.5]", g.Utilization[1])
	}
	if !almost(g.Share[0][0], 0.5) || !almost(g.Share[1][0], 1) {
		t.Errorf("share rows = %v, want a=0.5 and empty-cell default 1", g.Share)
	}

	// A sample straddling two columns splits its weight.
	g = CondenseGrid([]string{"a"}, []Sample{
		{Node: "a", Start: 0, End: 100, Utilization: 1},
		{Node: "a", Start: 100, End: 300, Utilization: 0.4},
	}, 3)
	if !almost(g.Utilization[0][1], 0.4) || !almost(g.Utilization[0][2], 0.4) {
		t.Errorf("straddling sample = %v, want 0.4 in cols 1 and 2", g.Utilization[0])
	}
	if g := CondenseGrid([]string{"a"}, nil, 4); len(g.Utilization) != 0 {
		t.Errorf("empty timeline produced a grid: %+v", g)
	}
}

// fixedShares is a canned ShareSource for drift tests.
type fixedShares struct{ v float64 }

func (f fixedShares) MeanShareOver(string, float64, float64) float64 { return f.v }

// TestComputeDrift joins a plan against synthetic outcomes: skipping
// rules, move detection, deltas, and ordering.
func TestComputeDrift(t *testing.T) {
	plan := &core.Plan{
		Nodes: []core.NodeInfo{{Name: "n1", CPUs: 2, Speed: 1}, {Name: "n2", CPUs: 2, Speed: 1}},
		Runs: []core.Run{
			{Name: "a", Work: 1000, Start: 0},
			{Name: "b", Work: 4000, Start: 3600},
			{Name: "c", Work: 100, Start: 0},
		},
		Assign: map[string]string{"a": "n1", "b": "n1", "c": "n1"},
	}
	pred := core.Prediction{Completion: map[string]float64{
		"a": 1000, "b": 7600, "c": math.Inf(1),
	}}
	outcomes := []Outcome{
		{Run: "a", Node: "n2", Start: 0, End: 1300, Finished: true},    // moved, 300 late
		{Run: "b", Node: "n1", Start: 3600, End: 7000, Finished: true}, // 600 early
		{Run: "c", Node: "n1", Start: 0, End: 200, Finished: true},     // Inf prediction: skipped
		{Run: "d", Node: "n1", Start: 0, End: 0, Finished: false},      // never finished: skipped
	}
	ds := ComputeDrift(plan, pred, 4, outcomes, fixedShares{0.5})
	if len(ds) != 2 {
		t.Fatalf("got %d drifts, want 2: %+v", len(ds), ds)
	}
	if ds[0].Day != 4 || ds[1].Day != 4 {
		t.Errorf("days = %d, %d, want the compared day 4", ds[0].Day, ds[1].Day)
	}
	// Sorted worst |delta| first: b (600) before a (300).
	if ds[0].Run != "b" || ds[1].Run != "a" {
		t.Fatalf("order = [%s %s], want [b a]", ds[0].Run, ds[1].Run)
	}
	b, a := ds[0], ds[1]
	if !almost(b.EndDelta, -600) || !almost(b.RelError, 600.0/4000) || b.Moved {
		t.Errorf("drift b = %+v, want delta -600, rel 0.15, not moved", b)
	}
	if !almost(a.EndDelta, 300) || !almost(a.RelError, 0.3) || !a.Moved || a.ActualNode != "n2" {
		t.Errorf("drift a = %+v, want delta 300, rel 0.3, moved to n2", a)
	}
	if !almost(a.MeanShare, 0.5) {
		t.Errorf("mean share = %v, want the share source's 0.5", a.MeanShare)
	}

	sum := Summarize(ds)
	if sum.Runs != 2 || sum.Late != 1 || sum.Moved != 1 ||
		!almost(sum.MeanAbs, 450) || !almost(sum.MaxAbs, 600) || sum.WorstRun != "b" ||
		!almost(sum.MeanRel, (0.3+0.15)/2) || !almost(sum.MeanShare, 0.5) {
		t.Errorf("summary = %+v", sum)
	}
	if got := Summarize(nil); got.Runs != 0 || !almost(got.MeanShare, 1) {
		t.Errorf("empty summary = %+v", got)
	}

	// nil share source reports share 1.
	ds = ComputeDrift(plan, pred, 4, outcomes[:1], nil)
	if len(ds) != 1 || !almost(ds[0].MeanShare, 1) {
		t.Errorf("nil share source drift = %+v, want share 1", ds)
	}
}

// TestStatsdbRoundTrip: the first load creates each table, loads are
// append-only, and non-finite floats are normalized before insert.
func TestStatsdbRoundTrip(t *testing.T) {
	db := statsdb.NewDB()
	samples := []Sample{
		{Node: "n1", Start: 0, End: 900, Utilization: 0.5, MeanShare: 0.75, MeanActive: 2, PeakActive: 3},
		{Node: "n1", Start: 900, End: 1800, Utilization: math.NaN(), MeanShare: math.Inf(1)},
	}
	tbl, err := LoadSamples(db, samples)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("node_usage rows = %d, want 2", tbl.Len())
	}
	// The NaN/Inf sample landed as zeros, not an insert error.
	row := tbl.Row(1)
	if row[3].Float() != 0 || row[4].Float() != 0 {
		t.Errorf("non-finite floats persisted as %v/%v, want 0/0", row[3].Float(), row[4].Float())
	}
	if !slices.Contains(tbl.IndexedColumns(), "node") {
		t.Error("node_usage missing node index")
	}

	ds := []Drift{{Run: "f", Day: 3, PlannedNode: "n1", ActualNode: "n2", Moved: true,
		PredEnd: 1000, ActualEnd: 1300, EndDelta: 300, RelError: 0.3, MeanShare: 0.5}}
	dtbl, err := LoadDrift(db, ds)
	if err != nil {
		t.Fatal(err)
	}
	if dtbl.Len() != 1 || !slices.Contains(dtbl.IndexedColumns(), "forecast") {
		t.Fatalf("drift table: %d rows, indexed=%v", dtbl.Len(), slices.Contains(dtbl.IndexedColumns(), "forecast"))
	}

	// Loading again is pure append into the same table.
	if _, err := LoadSamples(db, samples[:1]); err != nil {
		t.Fatalf("second load: %v", err)
	}
	if tbl.Len() != 3 {
		t.Errorf("rows after second load = %d, want 3", tbl.Len())
	}

	if _, err := LoadSamples(db, []Sample{{}}); err == nil {
		t.Error("sample with empty node did not error")
	}
	if _, err := LoadDrift(db, []Drift{{}}); err == nil {
		t.Error("drift with empty run did not error")
	}
}

// TestReportAndDriftReport smoke-test the plain-text renderings.
func TestReportAndDriftReport(t *testing.T) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 1, 1.0)
	s := NewSampler(c, Options{Interval: 600})
	n.Submit("a", 100, nil)
	n.Submit("b", 100, nil)
	e.Run()
	s.Finalize(e.Now())
	rep := s.Report(5)
	for _, want := range []string{"node", "contention", "1 contention"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	dr := DriftReport([]Drift{{Run: "f", PlannedNode: "n1", ActualNode: "n2", Moved: true,
		PredEnd: 1000, ActualEnd: 1300, EndDelta: 300, RelError: 0.3, MeanShare: 0.5}})
	for _, want := range []string{"f", "n2", "1 late", "1 moved"} {
		if !strings.Contains(dr, want) {
			t.Errorf("drift report missing %q:\n%s", want, dr)
		}
	}
}
