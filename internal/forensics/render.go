package forensics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/plot"
)

// BlameTable renders the per-run decomposition for one forecast ("" = all
// runs) as the foreman CLI's blame report.
func BlameTable(rep *Report, forecastName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %4s %-10s %9s %7s %7s %7s %7s %7s %6s %-14s\n",
		"run", "day", "node", "lateness", "queue", "conten", "fail", "upstr", "est", "share", "dominant")
	shown := 0
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if forecastName != "" && r.Forecast != forecastName {
			continue
		}
		shown++
		flag := " "
		if r.Interrupted {
			flag = "!"
		}
		fmt.Fprintf(&b, "%-23s%s %4d %-10s %9s %7s %7s %7s %7s %7s %6.2f %-14s\n",
			r.Forecast, flag, r.Day, r.Node, plot.HHMM(r.Lateness),
			plot.HHMM(r.QueueWait), plot.HHMM(r.Contention), plot.HHMM(r.Failure),
			plot.HHMM(r.UpstreamWait), plot.HHMM(r.EstimateError), r.MeanShare, r.Dominant)
	}
	if shown == 0 {
		fmt.Fprintf(&b, "(no analyzed runs%s)\n", forClause(forecastName))
	}
	return b.String()
}

// DayTable renders the per-day aggregate blame with a stacked text bar
// per day — the terminal cousin of the dashboard's blame panel.
func DayTable(rep *Report, width int) string {
	if width <= 0 {
		width = 40
	}
	var maxLate float64
	for _, d := range rep.Days {
		if d.Lateness > maxLate {
			maxLate = d.Lateness
		}
	}
	symbols := map[string]byte{
		CompQueueWait:     'q',
		CompContention:    'c',
		CompFailure:       'f',
		CompUpstreamWait:  'u',
		CompEstimateError: 'e',
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %5s %9s %-14s blame mix (q=queue c=contention f=failure u=upstream e=estimate)\n",
		"day", "runs", "lateness", "dominant")
	for _, d := range rep.Days {
		var bar strings.Builder
		if maxLate > 0 {
			var total float64
			for _, c := range Components() {
				total += d.Components[c]
			}
			if total > 0 {
				cols := d.Lateness / maxLate * float64(width)
				for _, c := range Components() {
					n := int(math.Round(d.Components[c] / total * cols))
					bar.Write(bytesRepeat(symbols[c], n))
				}
			}
		}
		fmt.Fprintf(&b, "%4d %5d %9s %-14s |%s\n", d.Day, d.Runs, plot.HHMM(d.Lateness), d.Dominant, bar.String())
	}
	return b.String()
}

func bytesRepeat(c byte, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// PathGantt renders one run's critical path as a terminal Gantt: one row
// per segment kind (simulation, product, wait), bars in path order, the
// planned end as the "now" marker.
func PathGantt(r *RunBlame) string {
	if len(r.Path) == 0 {
		return fmt.Sprintf("(no critical path recorded for %s day %d)\n", r.Forecast, r.Day)
	}
	origin := r.Start
	var bars []plot.GanttBar
	for _, s := range r.Path {
		bars = append(bars, plot.GanttBar{
			Node:  s.Kind,
			Run:   s.Name,
			Start: s.Start - origin,
			End:   s.End - origin,
		})
	}
	now := 0.0
	if r.PlannedEnd > origin {
		now = r.PlannedEnd - origin
	}
	g := plot.Gantt{
		Title: fmt.Sprintf("critical path: %s day %d on %s (lateness %s, dominant %s; | = planned end)",
			r.Forecast, r.Day, r.Node, plot.HHMM(r.Lateness), r.Dominant),
		Bars: bars,
		Now:  now,
	}
	return g.Render()
}

// WorstRun returns the analyzed run with the largest lateness for a
// forecast ("" = any forecast), or nil when nothing matches.
func WorstRun(rep *Report, forecastName string) *RunBlame {
	var worst *RunBlame
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if forecastName != "" && r.Forecast != forecastName {
			continue
		}
		if worst == nil || r.Lateness > worst.Lateness {
			worst = r
		}
	}
	return worst
}

func forClause(forecastName string) string {
	if forecastName == "" {
		return ""
	}
	return " for " + forecastName
}
