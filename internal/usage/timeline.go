package usage

import (
	"math"
	"sort"
)

// meanShareOver integrates one node's timeline — disjoint buckets in
// start order — into the time-average per-job share across [start, end],
// weighting each bucket by its running time within the window (1 when
// the window holds no running time).
func meanShareOver(ss []Sample, start, end float64) float64 {
	if end <= start {
		return 1
	}
	var shareInt, runSecs float64
	for _, sm := range overlappingSamples(ss, start, end) {
		lo, hi := math.Max(sm.Start, start), math.Min(sm.End, end)
		if hi <= lo {
			continue
		}
		frac := (hi - lo) / (sm.End - sm.Start)
		// runSecs within the sample = elapsed − idle − down.
		run := (sm.End - sm.Start - sm.IdleSecs - sm.DownSecs) * frac
		shareInt += sm.MeanShare * run
		runSecs += run
	}
	if runSecs <= 0 {
		return 1
	}
	return shareInt / runSecs
}

// downSecsOver sums one node's down time overlapping [start, end],
// pro-rated within partially overlapped buckets.
func downSecsOver(ss []Sample, start, end float64) float64 {
	if end <= start {
		return 0
	}
	var down float64
	for _, sm := range overlappingSamples(ss, start, end) {
		lo, hi := math.Max(sm.Start, start), math.Min(sm.End, end)
		if hi <= lo {
			continue
		}
		down += sm.DownSecs * (hi - lo) / (sm.End - sm.Start)
	}
	return down
}

// overlappingSamples narrows a node's timeline (disjoint buckets in start
// order) to the ones that can intersect [start, end] — binary search on
// both ends, so window queries over a long campaign cost O(log n +
// overlap) instead of a full rescan per query.
func overlappingSamples(ss []Sample, start, end float64) []Sample {
	lo := sort.Search(len(ss), func(i int) bool { return ss[i].End > start })
	hi := lo + sort.Search(len(ss)-lo, func(i int) bool { return ss[lo+i].Start >= end })
	return ss[lo:hi]
}
