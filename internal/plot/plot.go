// Package plot renders the repository's experiment output: ASCII
// scatter/line charts for the paper's figures, CSV emission for external
// plotting, and the Gantt view of the ForeMan interface (Figure 3).
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named (x, y) sequence.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// markers cycles through per-series point symbols.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Chart describes an ASCII chart with a plot area 72 columns wide.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Height int // plot area rows (default 20)
	Series []Series
}

// Render draws the chart.
func (c Chart) Render() string {
	const width = 72
	height := c.Height
	if height <= 0 {
		height = 20
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.Series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			points++
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if points == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			grid[height-1-row][col] = mark
		}
	}

	yAxis := func(row int) float64 {
		return maxY - (maxY-minY)*float64(row)/float64(height-1)
	}
	for row := 0; row < height; row++ {
		fmt.Fprintf(&b, "%10.4g |%s|\n", yAxis(row), string(grid[row]))
	}
	fmt.Fprintf(&b, "%10s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%10s  x: %s   y: %s\n", "", c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// CSV renders the series as a wide CSV: the union of x values in the first
// column, one column per series, blanks where a series has no value at
// that x.
func CSV(xHeader string, series []Series) string {
	xsSet := make(map[float64]bool)
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	lookup := make([]map[float64]float64, len(series))
	for i, s := range series {
		lookup[i] = make(map[float64]float64, len(s.X))
		for j := range s.X {
			lookup[i][s.X[j]] = s.Y[j]
		}
	}

	var b strings.Builder
	b.WriteString(csvEscape(xHeader))
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for i := range series {
			b.WriteByte(',')
			if y, ok := lookup[i][x]; ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// HHMM renders a duration in seconds as ±h:mm, truncated to the minute:
// the reports' and alert messages' one duration format.
func HHMM(sec float64) string {
	sign := ""
	if sec < 0 {
		sign = "-"
		sec = -sec
	}
	h := int(sec) / 3600
	m := (int(sec) % 3600) / 60
	return fmt.Sprintf("%s%d:%02d", sign, h, m)
}
