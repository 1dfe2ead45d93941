package forensics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

const eps = 1e-6

// synthInput builds a hand-computable single-run trace:
//
//	run f1/day1 on n1: [100, 700], extent 600
//	  simulation child  [150, 500]
//	  product child     [520, 700]
//	busy union 530 s → upstream wait 70 s
//	node n1 over the run: share 0.8, 50 s down
//	  → failure 50, executing 480, contention 96, work 384
//	plan: start 50, end 434 (duration 384 → estimate error 0), deadline 600
//	  → queue wait 50, lateness 700−434 = 266 = 50+96+50+70+0
func synthInput() Input {
	return Input{
		Spans: []telemetry.Span{
			{ID: 1, Cat: "run", Name: "f1", Track: "n1", Start: 100, End: 700,
				Args: map[string]string{"forecast": "f1", "day": "1", "node": "n1"}},
			{ID: 2, Parent: 1, Cat: "simulation", Name: "sim f1", Track: "n1", Start: 150, End: 500},
			{ID: 3, Parent: 1, Cat: "product", Name: "prod p1", Track: "n1", Start: 520, End: 700},
		},
		Plan: []PlanEntry{
			{Forecast: "f1", Day: 1, Node: "n1", Start: 50, End: 434, Deadline: 600},
		},
		Timeline: fixedShares{share: 0.8, down: 50},
	}
}

// fixedShares is a canned ShareSource: every node and window reads the
// same mean share and down time.
type fixedShares struct{ share, down float64 }

func (f fixedShares) MeanShareOver(string, float64, float64) float64 { return f.share }
func (f fixedShares) DownSecsOver(string, float64, float64) float64  { return f.down }

func TestAnalyzeDecomposition(t *testing.T) {
	rep, err := Analyze(synthInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(rep.Runs))
	}
	r := rep.Runs[0]
	want := map[string]float64{
		CompQueueWait:     50,
		CompContention:    96,
		CompFailure:       50,
		CompUpstreamWait:  70,
		CompEstimateError: 0,
	}
	for c, w := range want {
		if got := r.Component(c); math.Abs(got-w) > eps {
			t.Errorf("%s = %v, want %v", c, got, w)
		}
	}
	if math.Abs(r.Lateness-266) > eps {
		t.Errorf("lateness = %v, want 266", r.Lateness)
	}
	if math.Abs(r.BlameSum()-r.Lateness) > eps {
		t.Errorf("blame sum %v != lateness %v", r.BlameSum(), r.Lateness)
	}
	if math.Abs(r.DeadlineMiss-100) > eps {
		t.Errorf("deadline miss = %v, want 100", r.DeadlineMiss)
	}
	if r.Dominant != CompContention {
		t.Errorf("dominant = %q, want %q", r.Dominant, CompContention)
	}
	if !r.Planned || math.Abs(r.MeanShare-0.8) > eps {
		t.Errorf("planned=%v share=%v, want true/0.8", r.Planned, r.MeanShare)
	}
}

func TestAnalyzeCriticalPath(t *testing.T) {
	rep, err := Analyze(synthInput())
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Runs[0].Path
	wantKinds := []string{"wait", "simulation", "wait", "product"}
	if len(p) != len(wantKinds) {
		t.Fatalf("path has %d segments (%v), want %d", len(p), p, len(wantKinds))
	}
	for i, s := range p {
		if s.Seq != i {
			t.Errorf("segment %d has seq %d", i, s.Seq)
		}
		if s.Kind != wantKinds[i] {
			t.Errorf("segment %d kind %q, want %q", i, s.Kind, wantKinds[i])
		}
	}
	// The path tiles [run.Start, run.End] with no gaps or overlaps.
	if math.Abs(p[0].Start-100) > eps || math.Abs(p[len(p)-1].End-700) > eps {
		t.Errorf("path spans [%v, %v], want [100, 700]", p[0].Start, p[len(p)-1].End)
	}
	for i := 1; i < len(p); i++ {
		if math.Abs(p[i].Start-p[i-1].End) > eps {
			t.Errorf("gap between segment %d (end %v) and %d (start %v)",
				i-1, p[i-1].End, i, p[i].Start)
		}
	}
}

func TestAnalyzeUnplannedRun(t *testing.T) {
	in := synthInput()
	in.Plan = nil
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Planned {
		t.Fatal("run reported planned without a plan entry")
	}
	if r.QueueWait != 0 || r.EstimateError != 0 {
		t.Errorf("unplanned run has queue %v / estimate %v, want 0/0", r.QueueWait, r.EstimateError)
	}
	// Lateness degrades to pure overhead: wait + failure + contention.
	wantLate := 70.0 + 50 + 96
	if math.Abs(r.Lateness-wantLate) > eps {
		t.Errorf("lateness = %v, want %v", r.Lateness, wantLate)
	}
	if math.Abs(r.BlameSum()-r.Lateness) > eps {
		t.Errorf("blame sum %v != lateness %v", r.BlameSum(), r.Lateness)
	}
}

func TestAnalyzeInterruptedAndUnknownPlan(t *testing.T) {
	in := synthInput()
	in.Spans[0].Args["interrupted"] = "true"
	// End <= Start marks the prediction unknown → analyzed as unplanned.
	in.Plan[0].End = in.Plan[0].Start
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if !r.Interrupted {
		t.Error("interrupted arg not surfaced")
	}
	if r.Planned || r.QueueWait != 0 {
		t.Errorf("unknown prediction treated as planned (planned=%v queue=%v)", r.Planned, r.QueueWait)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	in := synthInput()
	in.Plan[0].Forecast = ""
	if _, err := Analyze(in); err == nil {
		t.Error("empty plan forecast not rejected")
	}
	in = synthInput()
	in.Spans[0].Args["day"] = "first"
	if _, err := Analyze(in); err == nil {
		t.Error("non-integer day not rejected")
	}
	in = synthInput()
	in.Spans[0].End = in.Spans[0].Start - 1
	if _, err := Analyze(in); err == nil {
		t.Error("run ending before start not rejected")
	}
}

func TestClipUnion(t *testing.T) {
	kids := []telemetry.Span{
		{Start: 20, End: 40},   // overlaps the next
		{Start: 10, End: 30},   // out of order on purpose
		{Start: 60, End: 80},   // disjoint
		{Start: 75, End: 120},  // overlaps, extends past hi
		{Start: 200, End: 300}, // entirely outside [lo, hi]
		{Start: -50, End: -5},  // entirely before lo
		{Start: 90, End: 90},   // zero length
	}
	got := clipUnion(kids, []int32{0, 1, 2, 3, 4, 5, 6}, 0, 100)
	want := [][2]float64{{10, 40}, {60, 100}}
	if len(got) != len(want) {
		t.Fatalf("clipUnion = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i][0]-want[i][0]) > eps || math.Abs(got[i][1]-want[i][1]) > eps {
			t.Fatalf("clipUnion = %v, want %v", got, want)
		}
	}
}

func TestDayAggregationPositiveOnly(t *testing.T) {
	runs := []RunBlame{
		{Forecast: "a", Day: 1, Lateness: 100, QueueWait: 100, Dominant: CompQueueWait},
		{Forecast: "b", Day: 1, Lateness: -50, QueueWait: -40, EstimateError: -10, Dominant: CompNone},
		{Forecast: "a", Day: 2, Lateness: 30, Contention: 30, Dominant: CompContention},
	}
	days := aggregateDays(runs)
	if len(days) != 2 {
		t.Fatalf("got %d days, want 2", len(days))
	}
	// Day 1: the early run must not cancel the late one's blame.
	if days[0].Lateness != 100 || days[0].Components[CompQueueWait] != 100 {
		t.Errorf("day 1 = %+v, want lateness 100 from queue_wait", days[0])
	}
	if days[0].Dominant != CompQueueWait || days[1].Dominant != CompContention {
		t.Errorf("dominants = %q/%q", days[0].Dominant, days[1].Dominant)
	}
}

func TestRenderers(t *testing.T) {
	rep, err := Analyze(synthInput())
	if err != nil {
		t.Fatal(err)
	}
	if got := BlameTable(rep, ""); got == "" || !contains(got, "contention") {
		t.Errorf("blame table missing dominant column:\n%s", got)
	}
	if got := BlameTable(rep, "nope"); !contains(got, "no analyzed runs") {
		t.Errorf("empty filter not reported:\n%s", got)
	}
	if got := DayTable(rep, 40); !contains(got, "blame mix") {
		t.Errorf("day table header missing:\n%s", got)
	}
	worst := WorstRun(rep, "")
	if worst == nil || worst.Forecast != "f1" {
		t.Fatalf("worst run = %+v", worst)
	}
	if g := PathGantt(worst); !contains(g, "critical path") || !contains(g, "simulation") {
		t.Errorf("gantt missing rows:\n%s", g)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
