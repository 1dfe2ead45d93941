// Package engineprof is the event-loop observatory: an event-exact
// profiler over the simulation kernel. It implements sim.Probe, so
// attaching it to an engine (eng.SetProbe) records — per scheduling
// label — events fired and cancelled, wall-clock handler cost
// (cumulative, max, and a decade histogram), sim-time dwell between
// schedule and fire, and an event-exact pending-queue-depth timeline.
//
// The same Report feeds every surface: `foreman -engineprof` renders the
// hotspot table and queue-depth chart, the monitor serves it at
// /api/engine and draws the dashboard panel, and cmd/factory prints a
// campaign-end summary. Reports persist through statsdb schema v6
// (LoadReport/ReadReport), so all surfaces read the same rows.
package engineprof

import (
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// HistBuckets is the number of decade buckets in the wall-clock handler
// cost histogram: <1µs, <10µs, <100µs, <1ms, <10ms, and ≥10ms.
const HistBuckets = 6

// HistBucketLabels names the histogram buckets, in order.
var HistBucketLabels = [HistBuckets]string{"<1µs", "<10µs", "<100µs", "<1ms", "<10ms", "≥10ms"}

// histBucket maps a handler duration to its decade bucket.
func histBucket(d time.Duration) int {
	ns := d.Nanoseconds()
	switch {
	case ns < 1_000:
		return 0
	case ns < 10_000:
		return 1
	case ns < 100_000:
		return 2
	case ns < 1_000_000:
		return 3
	case ns < 10_000_000:
		return 4
	default:
		return 5
	}
}

// labelStats accumulates per-label counters while the profiler is
// attached. Wall-clock figures cover only the sampled (timed) handlers;
// fired/cancelled/dwell counts are exact.
type labelStats struct {
	scheduled   int64
	fired       int64
	cancelled   int64
	wallSampled int64 // handlers actually timed (engine sampling)
	wallNS      int64 // cumulative wall-clock over sampled handlers
	wallMaxNS   int64
	wallHist    [HistBuckets]int64
	dwellSum    float64 // Σ (fire time − schedule time), sim seconds
	dwellMax    float64
}

// DepthCap bounds the queue-depth timeline: when a campaign outgrows
// DepthCap buckets, bucket width doubles and adjacent pairs merge, so
// the timeline stays event-exact in its maxima while memory stays O(1).
const DepthCap = 512

// depthTimeline records the maximum pending-queue depth per sim-time
// bucket, with adaptive bucket width.
type depthTimeline struct {
	width   float64 // bucket width, sim seconds
	start   float64 // sim time of bucket 0's left edge
	buckets []int   // max depth seen in each bucket (-1: no observation)
	began   bool
}

func (d *depthTimeline) observe(t float64, depth int) {
	if !d.began {
		d.began = true
		d.start = t
		d.width = 1
		d.buckets = make([]int, 0, DepthCap)
	}
	if t < d.start {
		t = d.start // defensive; sim time is monotone
	}
	idx := int((t - d.start) / d.width)
	for idx >= DepthCap {
		d.rescale()
		idx = int((t - d.start) / d.width)
	}
	for len(d.buckets) <= idx {
		d.buckets = append(d.buckets, -1)
	}
	if depth > d.buckets[idx] {
		d.buckets[idx] = depth
	}
}

// rescale doubles the bucket width, merging adjacent pairs by max.
func (d *depthTimeline) rescale() {
	d.width *= 2
	half := (len(d.buckets) + 1) / 2
	for i := 0; i < half; i++ {
		v := d.buckets[2*i]
		if 2*i+1 < len(d.buckets) && d.buckets[2*i+1] > v {
			v = d.buckets[2*i+1]
		}
		d.buckets[i] = v
	}
	d.buckets = d.buckets[:half]
}

// points renders the timeline as (bucket midpoint, max depth) samples,
// carrying the last observed depth forward through empty buckets.
func (d *depthTimeline) points() []DepthPoint {
	if !d.began {
		return nil
	}
	pts := make([]DepthPoint, 0, len(d.buckets))
	last := 0
	for i, v := range d.buckets {
		if v < 0 {
			v = last // carry forward through empty buckets
		}
		last = v
		pts = append(pts, DepthPoint{T: d.start + (float64(i)+0.5)*d.width, Depth: v})
	}
	return pts
}

// Profiler observes one engine. Attach with eng.SetProbe(p); detach with
// eng.SetProbe(nil). Safe for concurrent Report calls while the engine
// runs (the monitor's HTTP goroutine reads live state).
type Profiler struct {
	mu     sync.Mutex
	labels map[string]*labelStats
	depth  depthTimeline
	// One-entry lookup cache: scopes pass the same label string on every
	// call, so consecutive events usually hit the same stats entry and
	// skip the map. Guarded by mu like everything else.
	lastLabel string
	lastStats *labelStats
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{labels: make(map[string]*labelStats)}
}

var _ sim.Probe = (*Profiler)(nil)

func (p *Profiler) stats(label string) *labelStats {
	if label == p.lastLabel && p.lastStats != nil {
		return p.lastStats
	}
	st := p.labels[label]
	if st == nil {
		st = &labelStats{}
		p.labels[label] = st
	}
	p.lastLabel, p.lastStats = label, st
	return st
}

// EventScheduled implements sim.Probe.
func (p *Profiler) EventScheduled(label string, now, when float64, pending int) {
	p.mu.Lock()
	p.stats(label).scheduled++
	p.depth.observe(now, pending)
	p.mu.Unlock()
}

// EventFired implements sim.Probe.
func (p *Profiler) EventFired(label string, born, when float64, wall time.Duration, pending int) {
	p.mu.Lock()
	st := p.stats(label)
	st.fired++
	if wall >= 0 { // negative: this fire's handler was not timed
		st.wallSampled++
		ns := wall.Nanoseconds()
		st.wallNS += ns
		if ns > st.wallMaxNS {
			st.wallMaxNS = ns
		}
		st.wallHist[histBucket(wall)]++
	}
	dwell := when - born
	st.dwellSum += dwell
	if dwell > st.dwellMax {
		st.dwellMax = dwell
	}
	p.depth.observe(when, pending)
	p.mu.Unlock()
}

// EventCancelled implements sim.Probe.
func (p *Profiler) EventCancelled(label string, born, when, now float64, pending int) {
	p.mu.Lock()
	p.stats(label).cancelled++
	p.depth.observe(now, pending)
	p.mu.Unlock()
}

// LabelReport is one label's aggregated kernel cost. Event counts and
// dwell figures are exact; wall-clock figures cover the sampled subset
// of handlers the engine timed (sim.DefaultProbeSampleEvery), with
// WallEstNS extrapolating to the full fire count.
type LabelReport struct {
	Label       string             `json:"label" db:"label"`
	Scheduled   int64              `json:"scheduled" db:"scheduled"`
	Fired       int64              `json:"fired" db:"fired"`
	Cancelled   int64              `json:"cancelled" db:"cancelled"`
	WallSampled int64              `json:"wall_sampled" db:"wall_sampled"` // handlers actually timed
	WallNS      int64              `json:"wall_ns" db:"wall_ns"`           // cumulative wall-clock over timed handlers
	WallMaxNS   int64              `json:"wall_max_ns" db:"wall_max_ns"`   // slowest timed handler
	WallHist    [HistBuckets]int64 `json:"wall_hist" db:"wall_hist"`       // decade buckets over timed handlers
	DwellSum    float64            `json:"dwell_sum_s" db:"dwell_sum"`     // Σ schedule→fire lag, sim seconds
	DwellMax    float64            `json:"dwell_max_s" db:"dwell_max"`     // longest single lag
}

// WallMeanNS is the mean cost of a timed handler, 0 when none were.
func (l LabelReport) WallMeanNS() float64 {
	if l.WallSampled == 0 {
		return 0
	}
	return float64(l.WallNS) / float64(l.WallSampled)
}

// WallEstNS extrapolates the label's total handler wall-clock from the
// sampled mean: mean timed cost × total fires. Sampling is proportional
// to fire frequency, so the estimate is unbiased per label.
func (l LabelReport) WallEstNS() float64 {
	return l.WallMeanNS() * float64(l.Fired)
}

// DwellMean is the mean schedule→fire lag in sim seconds.
func (l LabelReport) DwellMean() float64 {
	if l.Fired == 0 {
		return 0
	}
	return l.DwellSum / float64(l.Fired)
}

// DepthPoint is one sample of the pending-queue-depth timeline.
type DepthPoint struct {
	T     float64 `json:"t" db:"t"`         // sim time, bucket midpoint
	Depth int     `json:"depth" db:"depth"` // max pending events in the bucket
}

// Report is a snapshot of everything the profiler has observed. Labels
// are sorted by cumulative wall-clock cost, hottest first.
type Report struct {
	Labels []LabelReport `json:"labels"`
	Depth  []DepthPoint  `json:"depth"`
}

// Report snapshots the profiler. Callable while the engine runs.
func (p *Profiler) Report() *Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := &Report{Depth: p.depth.points()}
	for label, st := range p.labels {
		rep.Labels = append(rep.Labels, LabelReport{
			Label:       label,
			Scheduled:   st.scheduled,
			Fired:       st.fired,
			Cancelled:   st.cancelled,
			WallSampled: st.wallSampled,
			WallNS:      st.wallNS,
			WallMaxNS:   st.wallMaxNS,
			WallHist:    st.wallHist,
			DwellSum:    st.dwellSum,
			DwellMax:    st.dwellMax,
		})
	}
	sortLabels(rep.Labels)
	return rep
}

// sortLabels orders hottest-first by estimated cumulative wall cost,
// breaking ties by fired count then name so reports are deterministic.
func sortLabels(ls []LabelReport) {
	sort.Slice(ls, func(i, j int) bool {
		ei, ej := ls[i].WallEstNS(), ls[j].WallEstNS()
		if ei != ej {
			return ei > ej
		}
		if ls[i].Fired != ls[j].Fired {
			return ls[i].Fired > ls[j].Fired
		}
		return ls[i].Label < ls[j].Label
	})
}

// TopK returns the k hottest labels (all of them when k <= 0 or k
// exceeds the label count).
func (r *Report) TopK(k int) []LabelReport {
	if k <= 0 || k > len(r.Labels) {
		k = len(r.Labels)
	}
	return r.Labels[:k]
}

// TotalFired sums fired events across labels.
func (r *Report) TotalFired() int64 {
	var n int64
	for _, l := range r.Labels {
		n += l.Fired
	}
	return n
}

// TotalCancelled sums cancelled events across labels.
func (r *Report) TotalCancelled() int64 {
	var n int64
	for _, l := range r.Labels {
		n += l.Cancelled
	}
	return n
}

// TotalWallNS sums timed handler wall-clock across labels.
func (r *Report) TotalWallNS() int64 {
	var n int64
	for _, l := range r.Labels {
		n += l.WallNS
	}
	return n
}

// TotalWallEstNS sums the per-label extrapolated wall-clock estimates.
func (r *Report) TotalWallEstNS() float64 {
	var n float64
	for _, l := range r.Labels {
		n += l.WallEstNS()
	}
	return n
}

// MaxDepth is the deepest pending queue observed.
func (r *Report) MaxDepth() int {
	max := 0
	for _, p := range r.Depth {
		if p.Depth > max {
			max = p.Depth
		}
	}
	return max
}

// Untagged returns the untagged label's report (zero value when every
// event was scheduled through a named scope — the healthy state).
func (r *Report) Untagged() LabelReport {
	for _, l := range r.Labels {
		if l.Label == sim.Untagged {
			return l
		}
	}
	return LabelReport{}
}
