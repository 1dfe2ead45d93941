package usage

import (
	"math"
	"sort"
)

// Timeline is a post-hoc view of the sampler's per-node samples: the
// share and down-time integrals lateness forensics needs, computable from
// a live Sampler's Samples() or from node_usage rows read back out of the
// statistics database — which is what makes a forensics pass replayable
// long after the campaign's engine is gone. It answers through the same
// integrals as the Sampler. A nil *Timeline reports share 1 and no down
// time everywhere.
type Timeline struct {
	nodes map[string][]Sample
}

// NewTimeline groups samples per node and sorts each node's slice by
// interval start. A node's samples are assumed non-overlapping (they are
// timeline buckets), which is what lets the integrals locate the overlap
// range by binary search. Input already contiguous per node — the layout
// Sampler.Samples() and a node-ordered statsdb read both produce — is
// subsliced in place rather than copied, which keeps a forensics pass
// over a campaign-scale timeline out of the allocator.
func NewTimeline(samples []Sample) *Timeline {
	t := &Timeline{nodes: make(map[string][]Sample)}
	grouped := true
	for i := 0; i < len(samples); {
		j := i + 1
		for j < len(samples) && samples[j].Node == samples[i].Node {
			j++
		}
		if _, dup := t.nodes[samples[i].Node]; dup {
			grouped = false
			break
		}
		t.nodes[samples[i].Node] = samples[i:j:j]
		i = j
	}
	if !grouped {
		// Interleaved nodes: rebuild with per-node copies.
		t.nodes = make(map[string][]Sample)
		for _, s := range samples {
			t.nodes[s.Node] = append(t.nodes[s.Node], s)
		}
	}
	for _, ss := range t.nodes {
		if !sort.SliceIsSorted(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start }) {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		}
	}
	return t
}

// MeanShareOver returns the time-average per-job CPU share on a node
// across [start, end] (1 when the window holds no running time).
func (t *Timeline) MeanShareOver(node string, start, end float64) float64 {
	return meanShareOver(t.samplesOf(node), start, end)
}

// DownSecsOver returns the node's down time overlapping [start, end],
// pro-rated within partially overlapped sample intervals.
func (t *Timeline) DownSecsOver(node string, start, end float64) float64 {
	return downSecsOver(t.samplesOf(node), start, end)
}

// samplesOf returns the node's samples (nil for a nil Timeline or an
// unknown node).
func (t *Timeline) samplesOf(node string) []Sample {
	if t == nil {
		return nil
	}
	return t.nodes[node]
}

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
