package usage

import (
	"math"
	"sort"
)

// series is one node's flushed timeline, read through its offsets into
// the sampler's store: disjoint buckets in start order.
type series struct {
	store []bucket
	offs  []int32
}

// at returns the series' i-th bucket.
func (r series) at(i int) *bucket { return &r.store[r.offs[i]] }

// meanShareOver integrates one node's timeline into the time-average
// per-job share across [start, end], weighting each bucket by its running
// time within the window (1 when the window holds no running time).
func meanShareOver(r series, start, end float64) float64 {
	if end <= start {
		return 1
	}
	var shareInt, runSecs float64
	lo, hi := r.overlapping(start, end)
	for i := lo; i < hi; i++ {
		b := r.at(i)
		lo, hi := math.Max(b.start, start), math.Min(b.end, end)
		if hi <= lo {
			continue
		}
		frac := (hi - lo) / (b.end - b.start)
		// runSecs within the bucket = elapsed − idle − down.
		run := (b.end - b.start - b.idleSecs - b.downSecs) * frac
		shareInt += b.meanShare * run
		runSecs += run
	}
	if runSecs <= 0 {
		return 1
	}
	return shareInt / runSecs
}

// downSecsOver sums one node's down time overlapping [start, end],
// pro-rated within partially overlapped buckets.
func downSecsOver(r series, start, end float64) float64 {
	if end <= start {
		return 0
	}
	var down float64
	lo, hi := r.overlapping(start, end)
	for i := lo; i < hi; i++ {
		b := r.at(i)
		lo, hi := math.Max(b.start, start), math.Min(b.end, end)
		if hi <= lo {
			continue
		}
		down += b.downSecs * (hi - lo) / (b.end - b.start)
	}
	return down
}

// overlapping narrows the series to the index range [lo, hi) of buckets
// that can intersect [start, end] — binary search on both ends, so window
// queries over a long campaign cost O(log n + overlap) instead of a full
// rescan per query.
func (r series) overlapping(start, end float64) (lo, hi int) {
	n := len(r.offs)
	lo = sort.Search(n, func(i int) bool { return r.at(i).end > start })
	hi = lo + sort.Search(n-lo, func(i int) bool { return r.at(lo+i).start >= end })
	return lo, hi
}
