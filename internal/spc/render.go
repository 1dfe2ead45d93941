// Terminal rendering for the SPC report — the `foreman -spc` surface.
// The same Report the JSON endpoint serves renders here as a standings
// table, per-series control charts, and a changepoint log.

package spc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/plot"
)

// SummaryTable renders one line per monitored series: its baseline,
// limits, judged-point and violation counts, changepoints, and whether
// it is currently in control.
func SummaryTable(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-24s %5s %10s %10s %5s %6s %-8s\n",
		"kind", "subject", "n", "center", "sigma", "viol", "shift", "state")
	for i := range rep.Series {
		sr := &rep.Series[i]
		state := "in"
		if sr.Out {
			state = "OUT"
		}
		judged := 0
		for j := range sr.Points {
			if !sr.Points[j].Learning {
				judged++
			}
		}
		if judged == 0 {
			state = "learning"
		}
		fmt.Fprintf(&b, "%-15s %-24s %5d %10.4g %10.4g %5d %6d %-8s\n",
			sr.Kind, sr.Subject, len(sr.Points), sr.Center, sr.Sigma,
			sr.Violations, len(sr.Changepoints), state)
	}
	if len(rep.Series) == 0 {
		b.WriteString("(no monitored series)\n")
	}
	return b.String()
}

// SeriesChart renders one series as a terminal control chart: values
// against sequence, limits overlaid, violations and changepoints marked.
func SeriesChart(sr *SeriesReport, width, height int) string {
	c := plot.ControlChart{
		Title:  fmt.Sprintf("%s / %s", sr.Kind, sr.Subject),
		XLabel: "observation",
		YLabel: sr.Kind,
		Width:  width,
		Height: height,
		Center: sr.Center,
		UCL:    sr.UCL,
		LCL:    sr.LCL,
	}
	for _, p := range sr.Points {
		c.X = append(c.X, float64(p.Seq))
		c.Y = append(c.Y, p.Value)
		c.Out = append(c.Out, p.Out)
		c.Learning = append(c.Learning, p.Learning)
	}
	for _, cp := range sr.Changepoints {
		c.Changepoints = append(c.Changepoints, float64(cp.Seq))
	}
	return c.Render()
}

// ChangepointTable renders every changepoint in the report, ordered by
// detection day then series.
func ChangepointTable(rep *Report) string {
	type row struct {
		kind, subject string
		cp            Changepoint
	}
	var rows []row
	for i := range rep.Series {
		for _, cp := range rep.Series[i].Changepoints {
			rows = append(rows, row{rep.Series[i].Kind, rep.Series[i].Subject, cp})
		}
	}
	if len(rows) == 0 {
		return "(no changepoints)\n"
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cp.DetectedDay != rows[j].cp.DetectedDay {
			return rows[i].cp.DetectedDay < rows[j].cp.DetectedDay
		}
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		return rows[i].subject < rows[j].subject
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-24s %5s %8s %-13s %10s %10s %8s\n",
		"kind", "subject", "day", "detected", "cause", "before", "after", "shift")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-24s %5d %8d %-13s %10.4g %10.4g %+8.3g\n",
			r.kind, r.subject, r.cp.Day, r.cp.DetectedDay, r.cp.Cause,
			r.cp.Before, r.cp.After, r.cp.Shift())
	}
	return b.String()
}

// FilterSubject returns a report restricted to one subject (plus the
// factory-wide series, which belong to every view); "" or "all" returns
// rep unchanged.
func FilterSubject(rep *Report, subject string) *Report {
	if subject == "" || subject == "all" {
		return rep
	}
	out := &Report{}
	for i := range rep.Series {
		sr := rep.Series[i]
		if sr.Subject == subject || sr.Subject == SubjectFactory {
			out.Series = append(out.Series, sr)
		}
	}
	return out
}
