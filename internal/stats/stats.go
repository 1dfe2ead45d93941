// Package stats provides the statistical tooling §4.3.2 of the paper
// builds on the run database: least-squares fits confirming that run time
// is linear in timesteps and near-linear in mesh sides, scaling-based
// run-time estimation, and summary statistics plus MAD outlier and
// level-shift detection over walltime series to spot contention spikes
// and code-change steps. Control charts live in package spc.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// LinearFit is a least-squares line y = Intercept + Slope·x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	R2        float64 // coefficient of determination
	N         int
}

// FitLinear computes the ordinary least squares fit of y on x. It requires
// at least two points with distinct x values.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: x and y lengths differ (%d vs %d)", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", n)
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Intercept: my - slope*mx,
		Slope:     slope,
		N:         n,
	}
	if syy == 0 {
		fit.R2 = 1 // constant y perfectly explained
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Median returns the median (NaN for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	devs := make([]float64, len(xs))
	for i, v := range xs {
		devs[i] = math.Abs(v - m)
	}
	return Median(devs)
}

// Outliers flags points whose distance from the series median exceeds
// k × MAD (robust z-score). It returns the indexes of flagged points.
// Contention spikes like days 172 and 192 of Figure 9 surface this way.
func Outliers(xs []float64, k float64) []int {
	if len(xs) == 0 {
		return nil
	}
	m := Median(xs)
	mad := MAD(xs)
	if mad == 0 {
		// Degenerate series (over half the points identical): flag exact
		// departures from the median.
		var out []int
		for i, v := range xs {
			if v != m {
				out = append(out, i)
			}
		}
		return out
	}
	var out []int
	for i, v := range xs {
		if math.Abs(v-m) > k*mad {
			out = append(out, i)
		}
	}
	return out
}

// LevelShifts detects sustained changes of at least minDelta between the
// means of adjacent windows of the given size — the code-version and mesh
// step changes visible in Figures 8 and 9. It returns the indexes where a
// new level begins. The window-mean difference is tent-shaped around a
// clean step, so climbing to its local peak pinpoints the boundary.
func LevelShifts(xs []float64, window int, minDelta float64) []int {
	w := window
	n := len(xs)
	if w <= 0 || n < 2*w {
		return nil
	}
	diff := make([]float64, n)
	for i := w; i+w <= n; i++ {
		diff[i] = math.Abs(Mean(xs[i:i+w]) - Mean(xs[i-w:i]))
	}
	var shifts []int
	i := w
	for i+w <= n {
		if diff[i] < minDelta {
			i++
			continue
		}
		j := i
		for j+1+w <= n && diff[j+1] > diff[j] {
			j++
		}
		shifts = append(shifts, j)
		i = j + w // skip past the transition
	}
	return shifts
}
