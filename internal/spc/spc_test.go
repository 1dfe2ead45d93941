package spc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/logs"
	"repro/internal/statsdb"
)

// feed pushes a flat sequence into one series, one point per day.
func feed(o *Observatory, kind, subject string, vals []float64) {
	for i, v := range vals {
		o.Observe(kind, subject, i, float64(i)*86400, v)
	}
}

// find returns the report's series for (kind, subject), nil when absent.
func find(r *Report, kind, subject string) *SeriesReport {
	for i := range r.Series {
		if r.Series[i].Kind == kind && r.Series[i].Subject == subject {
			return &r.Series[i]
		}
	}
	return nil
}

// setBaseline freezes a series' baseline before any observation arrives,
// so judging starts at the first point.
func setBaseline(o *Observatory, kind, subject string, center, sigma float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.get(kind, subject)
	s.center, s.sigma, s.frozen = center, sigmaFloor(sigma, center), true
}

func TestLearningThenJudging(t *testing.T) {
	o := New(DefaultParams())
	feed(o, KindRunTime, "fc", []float64{100, 101, 99, 100, 102, 98, 100, 101})
	rep := o.Report()
	sr := find(rep, KindRunTime, "fc")
	if sr == nil {
		t.Fatal("series missing from report")
	}
	if len(sr.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(sr.Points))
	}
	for i, p := range sr.Points {
		if !p.Learning {
			t.Fatalf("point %d judged during baseline collection", i)
		}
	}
	if sr.Center == 0 || sr.Sigma == 0 {
		t.Fatalf("baseline not frozen after MinBaseline points: center=%g sigma=%g", sr.Center, sr.Sigma)
	}
	if math.Abs(sr.Center-100.125) > 1e-9 {
		t.Fatalf("center = %g, want 100.125", sr.Center)
	}

	// The ninth point is judged against the frozen baseline.
	o.Observe(KindRunTime, "fc", 8, 8*86400, 100)
	sr = find(o.Report(), KindRunTime, "fc")
	p := sr.Points[8]
	if p.Learning || p.Out {
		t.Fatalf("in-control point judged wrong: %+v", p)
	}
	if p.UCL <= p.Center || p.LCL >= p.Center {
		t.Fatalf("limits not around center: %+v", p)
	}
}

func TestShewhartSpikeFiresWE1(t *testing.T) {
	o := New(DefaultParams())
	var events []Event
	o.OnEvent(func(e Event) { events = append(events, e) })
	feed(o, KindRunTime, "fc", []float64{100, 102, 98, 101, 99, 100, 102, 98})
	o.Observe(KindRunTime, "fc", 8, 8*86400, 160) // wild spike
	o.Observe(KindRunTime, "fc", 9, 9*86400, 100) // back to normal

	sr := find(o.Report(), KindRunTime, "fc")
	spike := sr.Points[8]
	if !spike.Out || spike.Rules&ParseRuleSet(RuleWE1) == 0 {
		t.Fatalf("spike not flagged we1: %+v", spike)
	}
	if len(sr.Changepoints) != 0 {
		t.Fatalf("single spike declared a changepoint: %+v", sr.Changepoints)
	}
	// Event stream: went out at the spike, came back at the next point.
	var wentOut, cameBack bool
	for _, e := range events {
		if e.Point.Seq == 8 && e.WentOut {
			wentOut = true
		}
		if e.Point.Seq == 9 && e.CameBack {
			cameBack = true
		}
	}
	if !wentOut || !cameBack {
		t.Fatalf("event transitions wrong: wentOut=%v cameBack=%v", wentOut, cameBack)
	}
}

func TestCUSUMDetectsSustainedShift(t *testing.T) {
	o := New(DefaultParams())
	base := []float64{100, 102, 98, 101, 99, 100, 102, 98}
	feed(o, KindRunTime, "fc", base)
	// Sustained +1.4x level shift starting at seq 8 (day 8).
	shifted := []float64{140, 141, 139, 140, 142, 138, 140}
	for i, v := range shifted {
		o.Observe(KindRunTime, "fc", 8+i, float64(8+i)*86400, v)
	}
	sr := find(o.Report(), KindRunTime, "fc")
	if len(sr.Changepoints) != 1 {
		t.Fatalf("changepoints = %d, want 1 (%+v)", len(sr.Changepoints), sr.Changepoints)
	}
	cp := sr.Changepoints[0]
	if cp.Cause != CauseDetected {
		t.Fatalf("cause = %q", cp.Cause)
	}
	if cp.Seq != 8 || cp.Day != 8 {
		t.Fatalf("changepoint located at seq %d day %d, want 8/8", cp.Seq, cp.Day)
	}
	if cp.After <= cp.Before {
		t.Fatalf("shift direction wrong: before=%g after=%g", cp.Before, cp.After)
	}
	// After re-baselining, shifted-level points are back in control.
	o.Observe(KindRunTime, "fc", 16, 16*86400, 140)
	sr = find(o.Report(), KindRunTime, "fc")
	last := sr.Points[len(sr.Points)-1]
	if last.Out {
		t.Fatalf("post-rebaseline point still out: %+v", last)
	}
	if math.Abs(sr.Center-140) > 2 {
		t.Fatalf("rebaselined center = %g, want ~140", sr.Center)
	}
}

func TestSingleOutlierDoesNotTripCUSUM(t *testing.T) {
	o := New(DefaultParams())
	feed(o, KindRunTime, "fc", []float64{100, 102, 98, 101, 99, 100, 102, 98})
	// One enormous outlier (a node-failure day) then normal points: the
	// clamp and MinShiftRun guards must keep the CUSUM from declaring a
	// changepoint.
	o.Observe(KindRunTime, "fc", 8, 8*86400, 1000)
	for i := 0; i < 6; i++ {
		o.Observe(KindRunTime, "fc", 9+i, float64(9+i)*86400, 100)
	}
	sr := find(o.Report(), KindRunTime, "fc")
	if len(sr.Changepoints) != 0 {
		t.Fatalf("outlier declared a changepoint: %+v", sr.Changepoints)
	}
	if !sr.Points[8].Out {
		t.Fatal("outlier not flagged at all")
	}
	if sr.Out {
		t.Fatal("series stuck out of control after recovery")
	}
}

func TestEWMACatchesSmallShift(t *testing.T) {
	o := New(DefaultParams())
	// Alternating noise, sigma-hat = MR/d2 = 2/1.128 ≈ 1.77.
	feed(o, KindRunTime, "fc", []float64{100, 102, 98, 101, 99, 100, 102, 98})
	// A ~1.5-sigma sustained shift: under the Shewhart 3-sigma radar,
	// but the EWMA accumulates it.
	hit := false
	for i := 0; i < 12 && !hit; i++ {
		o.Observe(KindRunTime, "fc", 8+i, float64(8+i)*86400, 103.5)
		sr := find(o.Report(), KindRunTime, "fc")
		last := sr.Points[len(sr.Points)-1]
		hit = last.Rules&ParseRuleSet(RuleEWMA) != 0
	}
	if !hit {
		t.Fatal("EWMA never flagged a 1.2-sigma sustained shift in 12 points")
	}
}

func TestZeroVarianceSeriesStaysFinite(t *testing.T) {
	o := New(DefaultParams())
	feed(o, KindRunTime, "fc", []float64{100, 100, 100, 100, 100, 100, 100, 100})
	o.Observe(KindRunTime, "fc", 8, 8*86400, 100) // identical: in control
	o.Observe(KindRunTime, "fc", 9, 9*86400, 101) // any departure: out
	sr := find(o.Report(), KindRunTime, "fc")
	for _, p := range sr.Points {
		for _, v := range []float64{p.Z, p.EWMA, p.CusumPos, p.CusumNeg, p.UCL, p.LCL} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite chart value on zero-variance series: %+v", p)
			}
		}
	}
	if sr.Points[8].Out {
		t.Fatal("identical value flagged on zero-variance series")
	}
	if !sr.Points[9].Out {
		t.Fatal("departure not flagged on zero-variance series")
	}
}

func TestSetBaselineSkipsLearning(t *testing.T) {
	o := New(DefaultParams())
	o.SeedFits([]BaselineFit{{Forecast: "fc", Center: 100, Sigma: 2}})
	o.Observe(KindRunTime, "fc", 0, 0, 120) // 10 sigma out, judged immediately
	sr := find(o.Report(), KindRunTime, "fc")
	if len(sr.Points) != 1 || sr.Points[0].Learning {
		t.Fatalf("seeded series still learning: %+v", sr.Points)
	}
	if !sr.Points[0].Out {
		t.Fatal("seeded series missed a 10-sigma point")
	}
}

func TestObserveRunFeedsSeriesAndLateness(t *testing.T) {
	o := New(DefaultParams())
	day := func(d int) float64 { return float64(d) * 86400 }
	for d := 0; d < 12; d++ {
		end := day(d) + 6*3600
		deadline := day(d) + 5*3600 // one hour late every day
		o.ObserveRun(RunObs{
			Forecast: "fc", Day: d, Node: "n1",
			Walltime: 3600, EstimatedWalltime: 3500,
			End: end, Deadline: deadline,
		})
	}
	// Days 0..9 close once day-11 runs arrive (d-2 margin); 10, 11 pend.
	rep := o.Report()
	lat := find(rep, KindLateness, SubjectFactory)
	if lat == nil || len(lat.Points) != 10 {
		t.Fatalf("lateness points = %v, want 10 closed days", lat)
	}
	if lat.Points[0].Value != 3600 {
		t.Fatalf("day-0 lateness = %g, want 3600", lat.Points[0].Value)
	}
	o.Finalize()
	lat = find(o.Report(), KindLateness, SubjectFactory)
	if len(lat.Points) != 12 {
		t.Fatalf("lateness points after Finalize = %d, want 12", len(lat.Points))
	}
	if rt := find(rep, KindRunTime, "fc"); rt == nil || len(rt.Points) != 12 {
		t.Fatal("run_time series not fed")
	}
	ee := find(rep, KindEstimateError, "fc")
	if ee == nil || ee.Points[0].Value != 100 {
		t.Fatalf("estimate_error series wrong: %+v", ee)
	}
}

func TestReplanHookFiresOnDriftOnly(t *testing.T) {
	o := New(DefaultParams())
	var replans []Event
	o.OnReplan(func(e Event) { replans = append(replans, e) })
	setBaseline(o, KindDrift, "fc", 0, 60)
	setBaseline(o, KindRunTime, "fc", 100, 2)
	o.Observe(KindRunTime, "fc", 0, 0, 200) // out, but not drift
	if len(replans) != 0 {
		t.Fatal("replan hook fired for a non-drift series")
	}
	o.Observe(KindDrift, "fc", 1, 86400, 600) // 10 sigma drift
	if len(replans) != 1 {
		t.Fatalf("replan hook fired %d times, want 1", len(replans))
	}
	if !replans[0].WentOut || replans[0].Kind != KindDrift {
		t.Fatalf("replan event wrong: %+v", replans[0])
	}
	o.Observe(KindDrift, "fc", 2, 2*86400, 650) // still out: no re-fire
	if len(replans) != 1 {
		t.Fatal("replan hook re-fired while already out")
	}
}

func TestFitRunHistorySegmentsAtCodeVersion(t *testing.T) {
	var records []*logs.RunRecord
	mk := func(day int, version string, wall float64) *logs.RunRecord {
		return &logs.RunRecord{
			Forecast: "fc", Region: "r", Year: 2005, Day: day, Node: "n1",
			CodeVersion: version, CodeFactor: 1, MeshName: "m", MeshSides: 100,
			Timesteps: 10, Start: float64(day) * 86400,
			End: float64(day)*86400 + wall, Walltime: wall,
			Status: logs.StatusCompleted,
		}
	}
	for d := 0; d < 10; d++ {
		records = append(records, mk(d, "v1.0", 100+float64(d%3)))
	}
	for d := 10; d < 20; d++ {
		records = append(records, mk(d, "v2.0", 140+float64(d%3)))
	}
	fits := FitRunHistory(records)
	if len(fits) != 1 {
		t.Fatalf("fits = %d, want 1", len(fits))
	}
	f := fits[0]
	if f.CodeVersion != "v2.0" || f.N != 10 {
		t.Fatalf("baseline from wrong segment: %+v", f)
	}
	if math.Abs(f.Center-141) > 1 {
		t.Fatalf("center = %g, want ~141", f.Center)
	}
	if len(f.Changepoints) != 1 || f.Changepoints[0].Cause != CauseCodeVersion || f.Changepoints[0].Day != 10 {
		t.Fatalf("version changepoint wrong: %+v", f.Changepoints)
	}

	// Seeding an observatory applies baseline and changepoint.
	o := New(DefaultParams())
	o.SeedFits(fits)
	sr := find(o.Report(), KindRunTime, "fc")
	if sr == nil || len(sr.Changepoints) != 1 {
		t.Fatalf("seeded series wrong: %+v", sr)
	}
	o.Observe(KindRunTime, "fc", 20, 20*86400, 141)
	if p := find(o.Report(), KindRunTime, "fc").Points[0]; p.Learning || p.Out {
		t.Fatalf("seeded series judged wrong: %+v", p)
	}
}

func TestStatsDBRoundTrip(t *testing.T) {
	o := New(DefaultParams())
	feed(o, KindRunTime, "fc", []float64{100, 102, 98, 101, 99, 100, 102, 98})
	for i, v := range []float64{140, 141, 139, 140, 142, 138, 140} {
		o.Observe(KindRunTime, "fc", 8+i, float64(8+i)*86400, v)
	}
	setBaseline(o, KindNodeShare, "node-1", 0.8, 0.05)
	o.Observe(KindNodeShare, "node-1", 3, 3*86400, 0.2)
	want := o.Report()

	db := statsdb.NewDB()
	if err := LoadReport(db, want); err != nil {
		t.Fatalf("LoadReport: %v", err)
	}
	got, err := ReadReport(db)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("series = %d, want %d", len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		w, g := &want.Series[i], &got.Series[i]
		if w.Kind != g.Kind || w.Subject != g.Subject {
			t.Fatalf("series %d order mismatch: %s/%s vs %s/%s", i, w.Kind, w.Subject, g.Kind, g.Subject)
		}
		if len(w.Points) != len(g.Points) || len(w.Changepoints) != len(g.Changepoints) {
			t.Fatalf("series %s/%s shape mismatch", w.Kind, w.Subject)
		}
		if w.Violations != g.Violations || w.Out != g.Out {
			t.Fatalf("series %s/%s standing mismatch: %d/%v vs %d/%v",
				w.Kind, w.Subject, w.Violations, w.Out, g.Violations, g.Out)
		}
		if math.Abs(w.Center-g.Center) > 1e-9 || math.Abs(w.UCL-g.UCL) > 1e-9 {
			t.Fatalf("series %s/%s limits mismatch", w.Kind, w.Subject)
		}
		for j := range w.Points {
			wp, gp := w.Points[j], g.Points[j]
			if wp.Seq != gp.Seq || wp.Out != gp.Out || wp.Learning != gp.Learning {
				t.Fatalf("point %s/%s[%d] verdict mismatch", w.Kind, w.Subject, j)
			}
			if math.Abs(wp.Value-gp.Value) > 1e-9 || math.Abs(wp.Z-gp.Z) > 1e-9 {
				t.Fatalf("point %s/%s[%d] value mismatch", w.Kind, w.Subject, j)
			}
			if wp.Rules != gp.Rules {
				t.Fatalf("point %s/%s[%d] rules mismatch: %v vs %v",
					w.Kind, w.Subject, j, wp.Rules, gp.Rules)
			}
		}
		if len(w.Changepoints) > 0 && w.Changepoints[0] != g.Changepoints[0] {
			t.Fatalf("changepoint mismatch: %+v vs %+v", w.Changepoints[0], g.Changepoints[0])
		}
	}
}

func TestRenderSurfaces(t *testing.T) {
	o := New(DefaultParams())
	feed(o, KindRunTime, "fc", []float64{100, 102, 98, 101, 99, 100, 102, 98})
	for i, v := range []float64{140, 141, 139, 140, 142, 138, 140} {
		o.Observe(KindRunTime, "fc", 8+i, float64(8+i)*86400, v)
	}
	rep := o.Report()
	sum := SummaryTable(rep)
	if !strings.Contains(sum, "run_time") || !strings.Contains(sum, "fc") {
		t.Fatalf("summary missing series:\n%s", sum)
	}
	chart := SeriesChart(find(rep, KindRunTime, "fc"), 60, 12)
	for _, want := range []string{"run_time / fc", "UCL", "LCL", "^"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("chart missing %q:\n%s", want, chart)
		}
	}
	cps := ChangepointTable(rep)
	if !strings.Contains(cps, CauseDetected) {
		t.Fatalf("changepoint table empty:\n%s", cps)
	}
	// Subject filter keeps the named subject plus factory-wide series.
	o.Observe(KindLateness, SubjectFactory, 1, 86400, 0)
	o.Observe(KindRunTime, "other", 1, 86400, 50)
	f := FilterSubject(o.Report(), "fc")
	if find(f, KindRunTime, "other") != nil {
		t.Fatal("filter kept foreign subject")
	}
	if find(f, KindRunTime, "fc") == nil || find(f, KindLateness, SubjectFactory) == nil {
		t.Fatal("filter dropped wanted series")
	}
}
