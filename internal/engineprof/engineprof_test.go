package engineprof_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engineprof"
	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/statsdb"
)

func TestProfilerAggregatesPerLabel(t *testing.T) {
	e := sim.NewEngine()
	p := engineprof.New()
	e.SetProbe(p)
	e.SetProbeSampling(1) // time every handler: exact wall totals below
	ps := e.Scope("ps")
	wf := e.Scope("workflow")
	ps.At(10, func() {})
	ps.At(20, func() {})
	wf.After(5, func() { time.Sleep(time.Millisecond) })
	doomed := ps.At(99, func() { t.Fatal("cancelled event fired") })
	doomed.Cancel()
	e.Scope("").At(1, func() {}) // an empty name: untagged
	e.Run()

	rep := p.Report()
	byLabel := map[string]engineprof.LabelReport{}
	for _, l := range rep.Labels {
		byLabel[l.Label] = l
	}
	psRep := byLabel["ps"]
	if psRep.Scheduled != 3 || psRep.Fired != 2 || psRep.Cancelled != 1 {
		t.Fatalf("ps = %+v, want scheduled 3 fired 2 cancelled 1", psRep)
	}
	wfRep := byLabel["workflow"]
	if wfRep.Fired != 1 {
		t.Fatalf("workflow fired = %d, want 1", wfRep.Fired)
	}
	if wfRep.WallNS < int64(time.Millisecond) {
		t.Fatalf("workflow wall = %dns, want >= 1ms (handler slept)", wfRep.WallNS)
	}
	if wfRep.DwellMax != 5 {
		t.Fatalf("workflow dwell max = %v, want 5", wfRep.DwellMax)
	}
	ut := rep.Untagged()
	if ut.Fired != 1 {
		t.Fatalf("untagged fired = %d, want 1", ut.Fired)
	}
	if rep.TotalFired() != 4 || rep.TotalCancelled() != 1 {
		t.Fatalf("totals fired %d cancelled %d, want 4 and 1",
			rep.TotalFired(), rep.TotalCancelled())
	}
	// The slow workflow handler must rank hottest.
	if rep.Labels[0].Label != "workflow" {
		t.Fatalf("hottest label = %q, want workflow", rep.Labels[0].Label)
	}
	if wfRep.WallSampled != wfRep.Fired {
		t.Fatalf("workflow timed %d of %d fires, want all (sampling 1)",
			wfRep.WallSampled, wfRep.Fired)
	}
	var histTotal int64
	for _, n := range wfRep.WallHist {
		histTotal += n
	}
	if histTotal != wfRep.WallSampled {
		t.Fatalf("workflow histogram sums to %d, want %d", histTotal, wfRep.WallSampled)
	}
}

func TestTopK(t *testing.T) {
	rep := &engineprof.Report{Labels: []engineprof.LabelReport{
		{Label: "a", Fired: 1, WallSampled: 1, WallNS: 300},
		{Label: "b", Fired: 1, WallSampled: 1, WallNS: 200},
		{Label: "c", Fired: 1, WallSampled: 1, WallNS: 100},
	}}
	if got := rep.TopK(2); len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := rep.TopK(0); len(got) != 3 {
		t.Fatalf("TopK(0) returned %d labels, want all 3", len(got))
	}
	if got := rep.TopK(99); len(got) != 3 {
		t.Fatalf("TopK(99) returned %d labels, want all 3", len(got))
	}
}

// The depth timeline is event-exact in its maxima and bounded in size:
// a long campaign collapses into wider buckets instead of growing.
func TestDepthTimelineAdaptiveWidth(t *testing.T) {
	e := sim.NewEngine()
	p := engineprof.New()
	e.SetProbe(p)
	s := e.Scope("x")
	// Schedule a long chain spanning far more than DepthCap seconds of
	// sim time at 1s spacing, forcing several width doublings.
	const n = 10_000
	var tick func()
	i := 0
	tick = func() {
		i++
		if i < n {
			s.After(1, tick)
		}
	}
	s.At(0, tick)
	// A burst early on sets a depth spike the rescaling must preserve.
	for j := 0; j < 50; j++ {
		s.At(0.5, func() {})
	}
	e.Run()

	rep := p.Report()
	if len(rep.Depth) > engineprof.DepthCap {
		t.Fatalf("depth timeline has %d buckets, cap is %d", len(rep.Depth), engineprof.DepthCap)
	}
	if len(rep.Depth) == 0 {
		t.Fatal("no depth samples")
	}
	if rep.MaxDepth() < 50 {
		t.Fatalf("max depth = %d, want >= 50 (burst lost in rescaling)", rep.MaxDepth())
	}
	// The spike must be in the first bucket (sim time ~0.5s).
	if rep.Depth[0].Depth < 50 {
		t.Fatalf("first bucket depth = %d, want >= 50", rep.Depth[0].Depth)
	}
}

func TestStatsdbRoundTrip(t *testing.T) {
	e := sim.NewEngine()
	p := engineprof.New()
	e.SetProbe(p)
	s := e.Scope("ps")
	for i := 0; i < 20; i++ {
		s.At(float64(i), func() {})
	}
	e.Scope("harvest").At(3, func() {})
	doomed := s.At(100, func() {})
	doomed.Cancel()
	e.Run()
	rep := p.Report()

	db := statsdb.NewDB()
	if err := engineprof.LoadReport(db, rep); err != nil {
		t.Fatal(err)
	}
	got, err := engineprof.ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Labels) != len(rep.Labels) {
		t.Fatalf("read %d labels, wrote %d", len(got.Labels), len(rep.Labels))
	}
	for i := range rep.Labels {
		w, g := rep.Labels[i], got.Labels[i]
		if w != g {
			t.Fatalf("label %d round-trip mismatch:\n wrote %+v\n  read %+v", i, w, g)
		}
	}
	if len(got.Depth) != len(rep.Depth) {
		t.Fatalf("read %d depth points, wrote %d", len(got.Depth), len(rep.Depth))
	}
	for i := range rep.Depth {
		if rep.Depth[i] != got.Depth[i] {
			t.Fatalf("depth %d: wrote %+v read %+v", i, rep.Depth[i], got.Depth[i])
		}
	}
}

func TestProfileRowsInLabelOrder(t *testing.T) {
	// Two campaigns whose sampled wall costs rank the labels differently
	// store the same engine_profile rows, in label order.
	var got []string
	for _, walls := range [][3]int64{{30, 20, 10}, {10, 20, 30}} {
		rep := &engineprof.Report{}
		for i, label := range []string{"ps", "harvest", "workflow"} {
			rep.Labels = append(rep.Labels, engineprof.LabelReport{Label: label, Fired: 1, WallSampled: 1, WallNS: walls[i]})
		}
		db := statsdb.NewDB()
		if err := engineprof.LoadReport(db, rep); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query("SELECT label FROM engine_profile")
		if err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, row := range res.Rows {
			labels = append(labels, row[0].Str())
		}
		got = append(got, strings.Join(labels, ","))
	}
	if got[0] != "harvest,ps,workflow" || got[1] != got[0] {
		t.Fatalf("engine_profile labels = %q", got)
	}
}

func TestReadReportEmptyDB(t *testing.T) {
	rep, err := engineprof.ReadReport(statsdb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Labels) != 0 || len(rep.Depth) != 0 {
		t.Fatalf("empty DB produced non-empty report: %+v", rep)
	}
}

func TestRenderSurfaces(t *testing.T) {
	e := sim.NewEngine()
	p := engineprof.New()
	e.SetProbe(p)
	e.Scope("ps").At(1, func() {})
	e.Run()
	rep := p.Report()
	table := engineprof.SummaryTable(rep, 10)
	if !strings.Contains(table, "ps") || !strings.Contains(table, "label") {
		t.Fatalf("summary table missing content:\n%s", table)
	}
	hist := engineprof.HistTable(rep, 10)
	if !strings.Contains(hist, "<1µs") {
		t.Fatalf("hist table missing bucket headers:\n%s", hist)
	}
	chart := engineprof.DepthChart(rep)
	if !strings.Contains(chart, "depth") {
		t.Fatalf("depth chart missing series:\n%s", chart)
	}
	empty := engineprof.DepthChart(&engineprof.Report{})
	if !strings.Contains(empty, "no queue-depth samples") {
		t.Fatalf("empty chart = %q", empty)
	}
}

// The acceptance bar for the labeling sweep: a seeded campaign replay
// schedules every event through a named scope — zero untagged events.
func TestCampaignHasZeroUntaggedEvents(t *testing.T) {
	tillamook := forecast.Tillamook()
	c, err := factory.New(factory.Config{
		Year: 2005,
		Days: 3,
		Forecasts: []factory.Assignment{
			{Spec: tillamook, Node: "fnode01"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := engineprof.New()
	c.Engine().SetProbe(p)
	c.Run()
	rep := p.Report()
	if rep.TotalFired() == 0 {
		t.Fatal("campaign fired no events")
	}
	ut := rep.Untagged()
	if ut.Scheduled != 0 || ut.Fired != 0 || ut.Cancelled != 0 {
		t.Fatalf("campaign scheduled untagged events: %+v (labels: %v)",
			ut, rep.Labels)
	}
	byLabel := map[string]bool{}
	for _, l := range rep.Labels {
		byLabel[l.Label] = true
	}
	for _, want := range []string{"factory", "workflow", "ps"} {
		if !byLabel[want] {
			t.Fatalf("campaign missing %q events; labels: %v", want, rep.Labels)
		}
	}
}
