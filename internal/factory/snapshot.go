package factory

import (
	"sort"

	"repro/internal/plot"
)

// ActiveRun describes one currently executing run — the top half of the
// ForeMan interface (Figure 3), which "displays both currently executing
// forecasts and those scheduled to run in the near future".
type ActiveRun struct {
	Forecast string
	Day      int
	Node     string
	Started  float64
	// SimProgress is the fraction of simulation increments completed.
	SimProgress float64
}

// ScheduledRun is a forecast launch that has not happened yet.
type ScheduledRun struct {
	Forecast string
	Day      int
	Node     string
	Start    float64 // campaign time of the scheduled launch
}

// Snapshot captures the factory's state at the engine's current time.
type Snapshot struct {
	Now       float64
	Active    []ActiveRun
	Scheduled []ScheduledRun // launches within the next day
	Completed []RunResult    // runs finished so far
}

// Snapshot returns the current factory state. It is typically used
// between Prepare and Finish, driving the engine with RunUntil to the
// moment of interest.
func (c *Campaign) Snapshot() Snapshot {
	now := c.eng.Now()
	s := Snapshot{Now: now, Active: c.Active()}
	// Upcoming launches: today's not-yet-started forecasts and tomorrow's.
	lastDay := c.cfg.StartDay + c.cfg.Days - 1
	for day := c.dayOf(now); day <= lastDay && day <= c.dayOf(now)+1; day++ {
		if day < c.cfg.StartDay {
			continue
		}
		for _, name := range c.order {
			spec := c.specs[name]
			if spec == nil {
				continue
			}
			launch := c.dayTime(day) + spec.StartOffset
			if launch <= now {
				continue
			}
			s.Scheduled = append(s.Scheduled, ScheduledRun{
				Forecast: name,
				Day:      day,
				Node:     c.assign[name],
				Start:    launch,
			})
		}
	}
	sort.Slice(s.Scheduled, func(i, j int) bool {
		if s.Scheduled[i].Start != s.Scheduled[j].Start {
			return s.Scheduled[i].Start < s.Scheduled[j].Start
		}
		return s.Scheduled[i].Forecast < s.Scheduled[j].Forecast
	})
	for _, r := range c.results {
		if r.Finished {
			s.Completed = append(s.Completed, r)
		}
	}
	sort.Slice(s.Completed, func(i, j int) bool {
		if s.Completed[i].Forecast != s.Completed[j].Forecast {
			return s.Completed[i].Forecast < s.Completed[j].Forecast
		}
		return s.Completed[i].Day < s.Completed[j].Day
	})
	return s
}

// Active returns the executing runs, ordered by forecast then day: the
// part of a Snapshot a monitor reads on every tick.
func (c *Campaign) Active() []ActiveRun {
	var active []ActiveRun
	for key, run := range c.active {
		name, day := splitRunKey(key)
		active = append(active, ActiveRun{
			Forecast:    name,
			Day:         day,
			Node:        run.Node().Name(),
			Started:     run.Started(),
			SimProgress: run.SimProgress(),
		})
	}
	sort.Slice(active, func(i, j int) bool {
		if active[i].Forecast != active[j].Forecast {
			return active[i].Forecast < active[j].Forecast
		}
		return active[i].Day < active[j].Day
	})
	return active
}

// dayOf maps campaign time to day of year.
func (c *Campaign) dayOf(t float64) int {
	return c.cfg.StartDay + int(t/SecondsPerDay)
}

// Gantt renders the snapshot as the ForeMan monitoring display: recent
// completed runs, executing runs (extrapolated to a predicted end from
// simulation progress), and upcoming launches, with the now-line.
func (s Snapshot) Gantt(width int) string {
	var bars []plot.GanttBar
	horizon := s.Now + SecondsPerDay
	for _, r := range s.Completed {
		if r.End < s.Now-SecondsPerDay {
			continue // off the left edge
		}
		bars = append(bars, plot.GanttBar{
			Node: r.Node, Run: r.Forecast, Start: r.Start, End: r.End,
		})
	}
	for _, a := range s.Active {
		end := horizon
		if a.SimProgress > 0 {
			predicted := a.Started + (s.Now-a.Started)/a.SimProgress
			if predicted < end {
				end = predicted
			}
		}
		bars = append(bars, plot.GanttBar{
			Node: a.Node, Run: a.Forecast, Start: a.Started, End: end,
		})
	}
	for _, sc := range s.Scheduled {
		if sc.Start > horizon {
			continue
		}
		bars = append(bars, plot.GanttBar{
			Node: sc.Node, Run: sc.Forecast, Start: sc.Start,
			End: sc.Start + 3600, // placeholder width; estimates come from ForeMan
		})
	}
	return plot.Gantt{
		Title:   "factory monitor",
		Bars:    bars,
		Now:     s.Now,
		Width:   width,
		Horizon: horizon,
	}.Render()
}

// splitRunKey parses the "<forecast>/<day>" keys of the active map.
func splitRunKey(key string) (string, int) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '/' {
			day := 0
			for _, c := range key[i+1:] {
				day = day*10 + int(c-'0')
			}
			return key[:i], day
		}
	}
	return key, 0
}
