package plot

import (
	"math"
	"strings"
	"testing"
)

func TestChartRendersPoints(t *testing.T) {
	out := Chart{
		Title:  "walltime",
		XLabel: "day",
		YLabel: "seconds",
		Series: []Series{
			{Name: "tillamook", X: []float64{1, 2, 3}, Y: []float64{40000, 40000, 80000}},
		},
	}.Render()
	if !strings.Contains(out, "walltime") || !strings.Contains(out, "tillamook") {
		t.Fatalf("chart missing labels:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("chart missing points:\n%s", out)
	}
	if !strings.Contains(out, "x: day") {
		t.Fatalf("chart missing axis labels:\n%s", out)
	}
}

func TestChartMultipleSeriesDistinctMarkers(t *testing.T) {
	out := Chart{
		Series: []Series{
			{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}},
			{Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}},
		},
	}.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("expected two marker kinds:\n%s", out)
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	if out := (Chart{}).Render(); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
	// Single point and NaN values must not panic.
	out := Chart{Series: []Series{
		{Name: "p", X: []float64{5, math.NaN()}, Y: []float64{7, 1}},
	}}.Render()
	if !strings.Contains(out, "*") {
		t.Fatalf("single point missing:\n%s", out)
	}
}

func TestCSVWideFormat(t *testing.T) {
	out := CSV("day", []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b,quoted", X: []float64{2}, Y: []float64{5}},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != `day,a,"b,quoted"` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,10," {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,20,5" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestGanttRender(t *testing.T) {
	out := Gantt{
		Title: "factory day",
		Now:   43200,
		Bars: []GanttBar{
			{Node: "fnode01", Run: "tillamook", Start: 10800, End: 50000},
			{Node: "fnode01", Run: "newport", Start: 10800, End: 30000},
			{Node: "fnode02", Run: "columbia", Start: 7200, End: 60000},
		},
		Horizon: 86400,
	}.Render()
	for _, want := range []string{"factory day", "fnode01", "fnode02", "tillamook", "columbia", "A", "B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	// Overlapping runs on one node stack onto two sub-rows: fnode01
	// appears once as a label but two bar rows exist.
	if strings.Count(out, "fnode01") != 1 {
		t.Fatalf("node label repeated:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	barRows := 0
	for _, l := range lines {
		if strings.Contains(l, "|") && strings.Contains(l, ".") {
			barRows++
		}
	}
	if barRows < 3 {
		t.Fatalf("expected ≥3 bar rows, got %d:\n%s", barRows, out)
	}
}

func TestGanttEmptyAndDefaults(t *testing.T) {
	out := Gantt{}.Render()
	if out == "" {
		t.Fatal("empty gantt rendered nothing")
	}
	// Sub-hour horizon renders seconds.
	out = Gantt{Bars: []GanttBar{{Node: "n", Run: "r", Start: 0, End: 100}}}.Render()
	if !strings.Contains(out, "100s") {
		t.Fatalf("horizon label missing:\n%s", out)
	}
}

func TestHHMM(t *testing.T) {
	for _, tc := range []struct {
		sec  float64
		want string
	}{
		{0, "0:00"},
		{59, "0:00"},
		{3600, "1:00"},
		{-1.5 * 3600, "-1:30"},
		{86399.9, "23:59"},
	} {
		if got := HHMM(tc.sec); got != tc.want {
			t.Errorf("HHMM(%v) = %q, want %q", tc.sec, got, tc.want)
		}
	}
}
