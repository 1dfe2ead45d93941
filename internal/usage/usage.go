// Package usage is the cluster utilization observatory: a sim-time
// sampler driven by cluster job-lifecycle events that records per-node,
// per-interval CPU-share timelines, detects contention windows (k > c,
// per-job share < 1) and idle windows, and computes plan-vs-actual drift
// against a ForeMan schedule.
//
// ForeMan's §4.1 planning rests on the c/k CPU-sharing model, but the
// seed factory recorded nothing about how shares actually evolved —
// saturation, idle capacity, and drift between plan and reality were
// invisible. This package closes that loop the way Tuor et al.
// (arXiv:1905.09219) argue schedulers need: utilization is collected
// continuously, queryable next to run statistics (statsdb tables
// node_usage and drift), and watchable live
// (/api/utilization and the dashboard heatmap).
//
// The sampler is exact, not polled: cluster events close the current
// piecewise-constant segment at the virtual instant the job population
// changes, so interval samples integrate the true share trajectory
// rather than a point sample of it. Between events the per-interval tick
// only splits segments at bucket boundaries and refreshes age gauges.
package usage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Metric names exported by the sampler when telemetry is attached.
const (
	MetricNodeShare       = "usage_node_share"
	MetricNodeActive      = "usage_node_active"
	MetricContentionAge   = "usage_node_contention_age_seconds"
	MetricImbalanceAge    = "usage_imbalance_age_seconds"
	MetricIdleWhileSat    = "usage_idle_while_saturated_nodes"
	MetricSamplesTotal    = "usage_samples_total"
	MetricContentionTotal = "usage_contention_windows_total"
)

// Window kinds.
const (
	WindowContention = "contention"
	WindowIdle       = "idle"
)

// DefaultInterval is the timeline bucket width in sim seconds (15 min).
const DefaultInterval = 900.0

// Options configure a Sampler.
type Options struct {
	// Interval is the timeline bucket width in sim seconds
	// (default DefaultInterval).
	Interval float64
	// StatusCols caps the number of timeline buckets included in the
	// Status heatmap grid (default 288 = 3 days at 15 min). The full
	// timeline is always available through Samples.
	StatusCols int
	// Telemetry, when non-nil, receives the usage gauges and counters.
	Telemetry *telemetry.Telemetry
}

// Sample is one node×interval cell of the utilization timeline.
type Sample struct {
	Node  string  `json:"node" db:"node"`
	Start float64 `json:"start" db:"start"`
	End   float64 `json:"end" db:"end"`
	// Utilization is consumed capacity over available capacity:
	// ∫ rate dt / (CPUs × speed × elapsed).
	Utilization float64 `json:"utilization" db:"utilization"`
	// MeanShare is the time-average per-job CPU share min(1, c/k) over
	// the interval's running time (1 when nothing ran).
	MeanShare float64 `json:"mean_share" db:"mean_share"`
	// MeanActive and PeakActive summarize the job population k.
	MeanActive float64 `json:"mean_active" db:"mean_active"`
	PeakActive int     `json:"peak_active" db:"peak_active"`
	// ContentionSecs, IdleSecs, and DownSecs partition the interval.
	ContentionSecs float64 `json:"contention_secs" db:"contention_secs"`
	IdleSecs       float64 `json:"idle_secs" db:"idle_secs"`
	DownSecs       float64 `json:"down_secs" db:"down_secs"`
}

// Window is one maximal contention or idle stretch on a node. A
// contention window is open while k > c (every serial job's share is
// below 1); an idle window while k = 0 on an up node.
type Window struct {
	Node  string  `json:"node"`
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// PeakActive is the largest k seen inside a contention window.
	PeakActive int `json:"peak_active,omitempty"`
	// MeanShare is the time-average per-job share inside a contention
	// window (below 1 by construction).
	MeanShare float64 `json:"mean_share,omitempty"`
}

// Duration returns the window length in sim seconds.
func (w Window) Duration() float64 { return w.End - w.Start }

// bucket is a flushed Sample as the sampler stores it: without the node
// name, since the offsets that point at it say whose it is.
type bucket struct {
	start, end     float64
	utilization    float64
	meanShare      float64
	meanActive     float64
	peakActive     int
	contentionSecs float64
	idleSecs       float64
	downSecs       float64
}

// sample returns the bucket as node's Sample.
func (b *bucket) sample(node string) Sample {
	return Sample{
		Node: node, Start: b.start, End: b.end,
		Utilization: b.utilization, MeanShare: b.meanShare,
		MeanActive: b.meanActive, PeakActive: b.peakActive,
		ContentionSecs: b.contentionSecs, IdleSecs: b.idleSecs, DownSecs: b.downSecs,
	}
}

// nodeState carries one node's open segment, current-bucket
// accumulators, lifetime totals, and open windows.
type nodeState struct {
	node *cluster.Node
	cpus int

	// Open segment: constant (k, down) since last.
	last     float64
	k        int
	down     bool
	lastBusy float64

	// Current bucket [bucketStart, bucketEnd) and its accumulators.
	bucketStart float64
	bucketEnd   float64
	busyAcc     float64
	shareInt    float64
	runSecs     float64
	activeInt   float64
	peak        int
	contSecs    float64
	idleSecs    float64
	downSecs    float64

	// Lifetime totals (flushed buckets + nothing pending).
	totContention float64
	totIdle       float64
	totDown       float64

	// Open windows: start time, or NaN when closed.
	contOpen     float64
	contPeak     int
	contShareInt float64
	idleOpen     float64

	// Pending contention window awaiting a real gap: job-increment churn
	// closes and reopens contention at the same virtual instant, so a
	// stretch is only final once contention stays closed for positive
	// sim-time.
	pendValid    bool
	pend         Window
	pendShareInt float64

	// Classification the cluster-wide imbalance counters track:
	// contended (k > c, up) or idle (k = 0, up).
	wasContended bool
	wasIdle      bool

	// dirty marks the node as touched by the current event instant; its
	// window/gauge refresh is deferred to settleLocked so only the
	// settled end-of-burst state is classified.
	dirty bool

	// offs locates the node's flushed buckets in the sampler's store, in
	// time order.
	offs []int32

	gShare   *telemetry.Gauge
	gActive  *telemetry.Gauge
	gContAge *telemetry.Gauge
}

// Sampler records cluster utilization. Create with NewSampler, wire with
// Start, and stop with Finalize. All exported methods are safe for
// concurrent use: the HTTP server snapshots Status while the simulation
// drives events.
type Sampler struct {
	mu     sync.Mutex
	eng    *sim.Engine
	opts   Options
	epoch  float64 // where every node's bucket boundaries start
	nodes  map[*cluster.Node]*nodeState
	states []*nodeState // name-ordered; the hot paths iterate this

	// store holds every node's flushed buckets in flush order, so a tick
	// writes its buckets side by side instead of into one array per node.
	store []bucket

	// Incremental counts behind the imbalance gauges, maintained by
	// refreshLocked so the per-event path never re-scans the cluster.
	contendedNodes int
	idleUpNodes    int

	// lastNS short-circuits the node lookup: events arrive in per-node
	// bursts (a submit and its eventual finish, increment churn).
	lastNS *nodeState

	// Nodes touched at the dirtyAt instant, awaiting their deferred
	// refresh. Many events share one virtual instant (a job increment
	// finishing and its successor starting), and only the settled state
	// at the end of the burst matters for windows and gauges.
	dirty   []*nodeState
	dirtyAt float64

	windows       []Window
	imbalanceOpen float64
	finalized     bool

	reg      *telemetry.Registry
	cSamples *telemetry.Counter
	gIdleSat *telemetry.Gauge
	gImbAge  *telemetry.Gauge
}

// NewSampler builds a sampler over the cluster's current nodes and
// subscribes to its lifecycle events. A node added later is sampled from
// its add time, in buckets aligned with the other nodes'.
func NewSampler(cl *cluster.Cluster, opts Options) *Sampler {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.StatusCols <= 0 {
		opts.StatusCols = 288
	}
	s := &Sampler{
		eng:           cl.Engine(),
		opts:          opts,
		epoch:         cl.Engine().Now(),
		nodes:         make(map[*cluster.Node]*nodeState),
		imbalanceOpen: math.NaN(),
	}
	if opts.Telemetry != nil {
		s.reg = opts.Telemetry.Registry()
		s.reg.Describe(MetricNodeShare, "Current per-job CPU share min(1, c/k) on the node (1 when idle).")
		s.reg.Describe(MetricNodeActive, "Jobs currently executing on the node.")
		s.reg.Describe(MetricContentionAge, "Age of the node's open contention window (0 when uncontended).")
		s.reg.Describe(MetricImbalanceAge, "Age of the current idle-while-saturated imbalance (0 when balanced).")
		s.reg.Describe(MetricIdleWhileSat, "Idle up nodes while at least one node is in contention.")
		s.reg.Describe(MetricSamplesTotal, "Timeline samples recorded by the usage sampler.")
		s.reg.Describe(MetricContentionTotal, "Contention windows opened, by node.")
		s.cSamples = s.reg.Counter(MetricSamplesTotal, nil)
		s.gIdleSat = s.reg.Gauge(MetricIdleWhileSat, nil)
		s.gImbAge = s.reg.Gauge(MetricImbalanceAge, nil)
	}
	for _, n := range cl.Nodes() {
		s.track(n, s.epoch)
	}
	cl.OnEvent(s.onEvent)
	return s
}

// track starts sampling node n at now. Its first bucket ends at the next
// boundary the other nodes' buckets share: boundaries step from the epoch
// by the interval, summed the way flushBucketLocked sums them, so they
// agree bit for bit.
func (s *Sampler) track(n *cluster.Node, now float64) *nodeState {
	end := s.epoch + s.opts.Interval
	for end <= now {
		end += s.opts.Interval
	}
	ns := &nodeState{
		node:        n,
		cpus:        n.CPUs(),
		last:        now,
		k:           n.Active(),
		down:        n.Down(),
		lastBusy:    n.BusySeconds(),
		bucketStart: now,
		bucketEnd:   end,
		contOpen:    math.NaN(),
		idleOpen:    math.NaN(),
	}
	if s.reg != nil {
		labels := telemetry.Labels{"node": n.Name()}
		ns.gShare = s.reg.Gauge(MetricNodeShare, labels)
		ns.gActive = s.reg.Gauge(MetricNodeActive, labels)
		ns.gContAge = s.reg.Gauge(MetricContentionAge, labels)
		ns.gShare.Set(1)
	}
	ns.wasContended = !ns.down && ns.k > ns.cpus
	ns.wasIdle = !ns.down && ns.k == 0
	if ns.wasContended {
		s.contendedNodes++
	}
	if ns.wasIdle {
		s.idleUpNodes++
	}
	s.nodes[n] = ns
	i, _ := s.find(n.Name())
	s.states = slices.Insert(s.states, i, ns)
	return ns
}

// find returns where the node named name is, or would be, in states.
func (s *Sampler) find(name string) (int, bool) {
	return slices.BinarySearchFunc(s.states, name, func(ns *nodeState, name string) int {
		return strings.Compare(ns.node.Name(), name)
	})
}

// Start schedules the per-interval tick on the engine until horizon —
// the tick flushes timeline buckets on schedule and keeps the age and
// imbalance gauges fresh even when no job events fire.
func (s *Sampler) Start(horizon float64) {
	interval := s.opts.Interval
	// The horizon bounds the timeline length; reserving it up front, in
	// one store and one block of offsets, keeps bucket appends out of the
	// allocator on the event path.
	if expect := int((horizon-s.eng.Now())/interval) + 2; expect > 0 && expect < 1<<20 {
		s.mu.Lock()
		s.store = slices.Grow(s.store, expect*len(s.states))
		offs := make([]int32, expect*len(s.states))
		for i, ns := range s.states {
			ns.offs = append(offs[i*expect:i*expect:(i+1)*expect], ns.offs...)
		}
		s.mu.Unlock()
	}
	sched := s.eng.Scope("usage")
	var tick func()
	tick = func() {
		s.Tick()
		if s.eng.Now()+interval <= horizon {
			sched.After(interval, tick)
		}
	}
	sched.After(interval, tick)
}

// Tick advances every node's timeline to the current virtual time.
func (s *Sampler) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.eng.Now()
	if len(s.dirty) > 0 {
		s.settleLocked()
	}
	for _, ns := range s.states {
		s.advanceLocked(ns, now)
		// Between events the node's state cannot transition, so a refresh
		// at tick time only recomputes age gauges — skip it entirely when
		// no registry is attached.
		if s.reg != nil {
			s.refreshLocked(ns, now)
		}
	}
	if s.reg != nil {
		s.refreshClusterLocked(now)
	}
}

// shareOf is the paper's per-job CPU share: min(1, c/k).
func shareOf(k, cpus int) float64 {
	if k <= 0 {
		return 1
	}
	return math.Min(1, float64(cpus)/float64(k))
}

// onEvent is the cluster lifecycle observer. It does only bookkeeping —
// integrate the closing segment, track k/down incrementally from the
// event kind, start sampling an added node — and defers window and gauge
// classification to settleLocked once the instant's event burst is over.
func (s *Sampler) onEvent(ev cluster.JobEvent) {
	s.mu.Lock()
	if len(s.dirty) > 0 && ev.Time != s.dirtyAt {
		s.settleLocked()
	}
	ns := s.lastNS
	if ev.Kind == cluster.EventAdd {
		ns = s.track(ev.Node, ev.Time)
	} else if ns == nil || ns.node != ev.Node {
		ns = s.nodes[ev.Node]
	}
	s.lastNS = ns
	s.advanceLocked(ns, ev.Time)
	switch ev.Kind {
	case cluster.EventSubmit:
		ns.k++
	case cluster.EventFinish:
		ns.k--
	case cluster.EventFail:
		ns.down = true
	case cluster.EventRepair:
		ns.down = false
	}
	if !ns.dirty {
		ns.dirty = true
		s.dirty = append(s.dirty, ns)
	}
	s.dirtyAt = ev.Time
	s.mu.Unlock()
}

// settleLocked runs the deferred refresh for every node touched at the
// last event instant. Deferring until the burst is over means a stretch
// of contention interrupted for zero sim-time never even registers as
// closed, and the per-event path stays at pure bookkeeping cost.
func (s *Sampler) settleLocked() {
	for _, ns := range s.dirty {
		ns.dirty = false
		s.refreshLocked(ns, s.dirtyAt)
	}
	s.dirty = s.dirty[:0]
	s.refreshClusterLocked(s.dirtyAt)
}

// advanceLocked integrates the node's open segment up to now, splitting
// it at bucket boundaries and flushing completed buckets. The segment's
// (k, down) is constant over the whole stretch, so the busy-seconds
// delta distributes linearly and the integration is exact.
func (s *Sampler) advanceLocked(ns *nodeState, now float64) {
	if now <= ns.last {
		return
	}
	busyNow := ns.node.BusySeconds()
	total := now - ns.last
	busyDelta := busyNow - ns.lastBusy
	share := shareOf(ns.k, ns.cpus)
	for ns.last < now {
		end := math.Min(now, ns.bucketEnd)
		dt := end - ns.last
		ns.busyAcc += busyDelta * (dt / total)
		ns.activeInt += float64(ns.k) * dt
		if ns.k > ns.peak {
			ns.peak = ns.k
		}
		switch {
		case ns.down:
			ns.downSecs += dt
		case ns.k == 0:
			ns.idleSecs += dt
		default:
			ns.shareInt += share * dt
			ns.runSecs += dt
			if ns.k > ns.cpus {
				ns.contSecs += dt
				ns.contShareInt += share * dt
			}
		}
		ns.last = end
		if end >= ns.bucketEnd {
			s.flushBucketLocked(ns, end)
		}
	}
	ns.lastBusy = busyNow
}

// flushBucketLocked appends the current bucket to the store and resets
// the accumulators for the next one starting at end.
func (s *Sampler) flushBucketLocked(ns *nodeState, end float64) {
	elapsed := end - ns.bucketStart
	if elapsed <= 0 {
		return
	}
	share := 1.0
	if ns.runSecs > 0 {
		share = ns.shareInt / ns.runSecs
	}
	ns.offs = append(ns.offs, int32(len(s.store)))
	s.store = append(s.store, bucket{
		start:          ns.bucketStart,
		end:            end,
		utilization:    ns.busyAcc / (ns.node.Capacity() * elapsed),
		meanShare:      share,
		meanActive:     ns.activeInt / elapsed,
		peakActive:     ns.peak,
		contentionSecs: ns.contSecs,
		idleSecs:       ns.idleSecs,
		downSecs:       ns.downSecs,
	})
	ns.totContention += ns.contSecs
	ns.totIdle += ns.idleSecs
	ns.totDown += ns.downSecs
	ns.bucketStart, ns.bucketEnd = end, end+s.opts.Interval
	ns.busyAcc, ns.shareInt, ns.runSecs, ns.activeInt = 0, 0, 0, 0
	ns.peak, ns.contSecs, ns.idleSecs, ns.downSecs = 0, 0, 0, 0
	s.cSamples.Inc()
}

// refreshLocked classifies the node's settled state — k and down are
// maintained incrementally by onEvent — transitions contention/idle
// windows, and updates the per-node gauges.
func (s *Sampler) refreshLocked(ns *nodeState, now float64) {
	contended := !ns.down && ns.k > ns.cpus
	idle := !ns.down && ns.k == 0

	if contended != ns.wasContended {
		if contended {
			s.contendedNodes++
		} else {
			s.contendedNodes--
		}
		ns.wasContended = contended
	}
	if idle != ns.wasIdle {
		if idle {
			s.idleUpNodes++
		} else {
			s.idleUpNodes--
		}
		ns.wasIdle = idle
	}

	if contended {
		if math.IsNaN(ns.contOpen) {
			ns.contOpen = now
			ns.contPeak = ns.k
			ns.contShareInt = 0
			if s.reg != nil {
				s.reg.Counter(MetricContentionTotal, telemetry.Labels{"node": ns.node.Name()}).Inc()
			}
		} else if ns.k > ns.contPeak {
			ns.contPeak = ns.k
		}
	} else if !math.IsNaN(ns.contOpen) {
		s.closeWindowLocked(ns, WindowContention, now)
	}
	if idle {
		if math.IsNaN(ns.idleOpen) {
			ns.idleOpen = now
		}
	} else if !math.IsNaN(ns.idleOpen) {
		s.closeWindowLocked(ns, WindowIdle, now)
	}

	if s.reg != nil {
		ns.gShare.Set(shareOf(ns.k, ns.cpus))
		ns.gActive.Set(float64(ns.k))
		if math.IsNaN(ns.contOpen) {
			ns.gContAge.Set(0)
		} else {
			ns.gContAge.Set(now - ns.contOpen)
		}
	}
}

// closeWindowLocked records the node's open window of the given kind.
// Contention stretches interrupted for zero sim-time (a job increment
// finishing and its successor starting at the same virtual instant)
// merge into one window; the merged window is final once contention
// stays closed past the instant, and is flushed by the next
// non-contiguous stretch or by Finalize.
func (s *Sampler) closeWindowLocked(ns *nodeState, kind string, now float64) {
	switch kind {
	case WindowContention:
		start := ns.contOpen
		ns.contOpen = math.NaN()
		if now <= start {
			return // zero-length churn; any pending stretch survives
		}
		if ns.pendValid && start <= ns.pend.End+1e-9 {
			ns.pend.End = now
			if ns.contPeak > ns.pend.PeakActive {
				ns.pend.PeakActive = ns.contPeak
			}
			ns.pendShareInt += ns.contShareInt
		} else {
			s.flushPendingLocked(ns)
			ns.pend = Window{Node: ns.node.Name(), Kind: kind, Start: start, End: now, PeakActive: ns.contPeak}
			ns.pendShareInt = ns.contShareInt
			ns.pendValid = true
		}
	case WindowIdle:
		w := Window{Node: ns.node.Name(), Kind: kind, Start: ns.idleOpen, End: now}
		ns.idleOpen = math.NaN()
		if w.Duration() > 0 {
			s.windows = append(s.windows, w)
		}
	}
}

// flushPendingLocked finalizes the node's pending contention stretch.
func (s *Sampler) flushPendingLocked(ns *nodeState) {
	if !ns.pendValid {
		return
	}
	ns.pendValid = false
	w := ns.pend
	if dur := w.Duration(); dur > 0 {
		w.MeanShare = ns.pendShareInt / dur
		s.windows = append(s.windows, w)
	}
}

// refreshClusterLocked updates the idle-while-saturated imbalance from
// the incrementally maintained node counts: idle up nodes count only
// while at least one node is contended. O(1) — it runs on every cluster
// event.
func (s *Sampler) refreshClusterLocked(now float64) {
	idle := 0
	if s.contendedNodes > 0 {
		idle = s.idleUpNodes
	}
	if idle > 0 {
		if math.IsNaN(s.imbalanceOpen) {
			s.imbalanceOpen = now
		}
	} else {
		s.imbalanceOpen = math.NaN()
	}
	if s.reg != nil {
		if math.IsNaN(s.imbalanceOpen) {
			s.gImbAge.Set(0)
		} else {
			s.gImbAge.Set(now - s.imbalanceOpen)
		}
		s.gIdleSat.Set(float64(idle))
	}
}

// Finalize advances every node to now, flushes the partial trailing
// bucket, and closes open windows. Call once, when the campaign is over.
func (s *Sampler) Finalize(now float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized {
		return
	}
	s.finalized = true
	if len(s.dirty) > 0 {
		s.settleLocked()
	}
	for _, ns := range s.states {
		s.advanceLocked(ns, now)
		if now > ns.bucketStart {
			s.flushBucketLocked(ns, now)
		}
		if !math.IsNaN(ns.contOpen) {
			s.closeWindowLocked(ns, WindowContention, now)
		}
		s.flushPendingLocked(ns)
		if !math.IsNaN(ns.idleOpen) {
			s.closeWindowLocked(ns, WindowIdle, now)
		}
	}
	sort.Slice(s.windows, func(i, j int) bool {
		if s.windows[i].Start != s.windows[j].Start {
			return s.windows[i].Start < s.windows[j].Start
		}
		return s.windows[i].Node < s.windows[j].Node
	})
}

// Samples returns the full timeline, node-major then time-ordered.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.store))
	for _, ns := range s.states {
		name := ns.node.Name()
		for _, off := range ns.offs {
			out = append(out, s.store[off].sample(name))
		}
	}
	return out
}

// Windows returns the detected contention and idle windows, by start
// time. Windows still open are only visible after Finalize.
func (s *Sampler) Windows() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Window(nil), s.windows...)
}

// MeanShareOver returns the time-average per-job share on a node across
// [start, end], integrated from the flushed timeline (1 when the window
// holds no running time). It backs the drift report's observed-share
// column.
func (s *Sampler) MeanShareOver(node string, start, end float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return meanShareOver(s.seriesOf(node), start, end)
}

// DownSecsOver returns the node's down time overlapping [start, end],
// pro-rated within partially overlapped timeline buckets. Forensic blame
// attribution charges this to the failure component.
func (s *Sampler) DownSecsOver(node string, start, end float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return downSecsOver(s.seriesOf(node), start, end)
}

// seriesOf returns the node's flushed timeline (empty for an unknown
// node).
func (s *Sampler) seriesOf(node string) series {
	if i, ok := s.find(node); ok {
		return series{s.store, s.states[i].offs}
	}
	return series{}
}

// NodeSummary is one node's aggregate standing in the Status snapshot.
type NodeSummary struct {
	Name           string  `json:"name"`
	CPUs           int     `json:"cpus"`
	Speed          float64 `json:"speed"`
	Active         int     `json:"active"`
	Down           bool    `json:"down,omitempty"`
	Share          float64 `json:"share"`
	Utilization    float64 `json:"utilization"` // lifetime
	ContentionSecs float64 `json:"contention_secs"`
	IdleSecs       float64 `json:"idle_secs"`
	DownSecs       float64 `json:"down_secs"`
}

// Grid is the nodes×time heatmap the dashboard renders: one row per
// node, one column per timeline bucket, values in [0, 1].
type Grid struct {
	Nodes       []string    `json:"nodes"`
	Start       float64     `json:"start"`
	Step        float64     `json:"step"`
	Utilization [][]float64 `json:"utilization"`
	Share       [][]float64 `json:"share"`
}

// Status is the observatory's snapshot for /api/utilization.
type Status struct {
	Now      float64       `json:"now"`
	Interval float64       `json:"interval"`
	Nodes    []NodeSummary `json:"nodes"`
	Grid     Grid          `json:"grid"`
	Windows  []Window      `json:"windows"`
}

// Status snapshots the sampler. The grid covers the most recent
// StatusCols buckets; windows are capped to the most recent 200. A node's
// utilization is as of the sampler's last advance over it (every node's,
// after Finalize): Status reads what the sampler recorded, never a node's
// live resource, so the control room can call it while the simulation
// runs.
func (s *Sampler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	step := s.opts.Interval
	st := Status{Now: s.eng.Now(), Interval: step, Grid: Grid{Step: step}}

	// Every node's buckets share one set of boundaries, so a sample's
	// column is the bucket holding its midpoint: a node added mid-run
	// starts partway along its row. The grid ends at the latest bucket.
	col := func(off int32) int {
		b := &s.store[off]
		return int(((b.start+b.end)/2 - s.epoch) / step)
	}
	total := 0
	for _, ns := range s.states {
		if n := len(ns.offs); n > 0 {
			total = max(total, col(ns.offs[n-1])+1)
		}
	}
	first := max(0, total-s.opts.StatusCols)
	cols := total - first
	if cols > 0 {
		st.Grid.Start = s.epoch + float64(first)*step
	}
	for _, ns := range s.states {
		st.Grid.Nodes = append(st.Grid.Nodes, ns.node.Name())
		util := make([]float64, cols)
		share := make([]float64, cols)
		for i := range share {
			share[i] = 1
		}
		for i := len(ns.offs) - 1; i >= 0; i-- {
			c := col(ns.offs[i]) - first
			if c < 0 {
				break
			}
			util[c] = s.store[ns.offs[i]].utilization
			share[c] = s.store[ns.offs[i]].meanShare
		}
		st.Grid.Utilization = append(st.Grid.Utilization, util)
		st.Grid.Share = append(st.Grid.Share, share)

		cont, idle, down := ns.totContention+ns.contSecs, ns.totIdle+ns.idleSecs, ns.totDown+ns.downSecs
		lifetime := 0.0
		if elapsed := ns.last - ns.node.Created(); elapsed > 0 {
			lifetime = ns.lastBusy / (ns.node.Capacity() * elapsed)
		}
		st.Nodes = append(st.Nodes, NodeSummary{
			Name:           ns.node.Name(),
			CPUs:           ns.cpus,
			Speed:          ns.node.Speed(),
			Active:         ns.k,
			Down:           ns.down,
			Share:          shareOf(ns.k, ns.cpus),
			Utilization:    lifetime,
			ContentionSecs: cont,
			IdleSecs:       idle,
			DownSecs:       down,
		})
	}
	ws := s.windows
	if len(ws) > 200 {
		ws = ws[len(ws)-200:]
	}
	st.Windows = append([]Window(nil), ws...)
	return st
}

// Report renders the observatory's plain-text summary: per-node totals
// and the most significant contention and idle windows.
func (s *Sampler) Report(maxWindows int) string {
	st := s.Status()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s %6s %11s %14s %11s %11s\n",
		"node", "cpus", "speed", "utilization", "contention", "idle", "down")
	for _, n := range st.Nodes {
		fmt.Fprintf(&b, "%-10s %4d %6.2f %10.1f%% %13s %11s %11s\n",
			n.Name, n.CPUs, n.Speed, 100*n.Utilization,
			plot.HHMM(n.ContentionSecs), plot.HHMM(n.IdleSecs), plot.HHMM(n.DownSecs))
	}
	all := s.Windows() // uncapped: the longest windows may be old
	var cont []Window
	for _, w := range all {
		if w.Kind == WindowContention {
			cont = append(cont, w)
		}
	}
	fmt.Fprintf(&b, "windows: %d contention, %d idle\n", len(cont), len(all)-len(cont))
	sort.Slice(cont, func(i, j int) bool { return cont[i].Duration() > cont[j].Duration() })
	for i, w := range cont {
		if i >= maxWindows {
			break
		}
		fmt.Fprintf(&b, "  contention %-10s %s → %s (%s, peak k=%d, mean share %.2f)\n",
			w.Node, plot.HHMM(w.Start), plot.HHMM(w.End), plot.HHMM(w.Duration()), w.PeakActive, w.MeanShare)
	}
	return b.String()
}

// CondenseGrid re-buckets a full timeline into at most cols columns
// spanning the whole campaign — the end-of-run heatmap, where the live
// dashboard's rolling window would only show the idle drain. Values are
// duration-weighted means; columns with no samples are NaN (rendered as
// "no data"). Node order follows nodes; samples for other nodes are
// ignored.
func CondenseGrid(nodes []string, samples []Sample, cols int) Grid {
	if cols <= 0 {
		cols = 96
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		lo = math.Min(lo, s.Start)
		hi = math.Max(hi, s.End)
	}
	g := Grid{Nodes: append([]string(nil), nodes...)}
	if hi <= lo {
		return g
	}
	g.Start = lo
	g.Step = (hi - lo) / float64(cols)
	rowOf := make(map[string]int, len(nodes))
	for i, n := range nodes {
		rowOf[n] = i
	}
	util := make([][]float64, len(nodes))
	share := make([][]float64, len(nodes))
	weight := make([][]float64, len(nodes))
	shareW := make([][]float64, len(nodes))
	for i := range util {
		util[i] = make([]float64, cols)
		share[i] = make([]float64, cols)
		weight[i] = make([]float64, cols)
		shareW[i] = make([]float64, cols)
	}
	for _, s := range samples {
		row, ok := rowOf[s.Node]
		if !ok {
			continue
		}
		run := s.End - s.Start - s.IdleSecs - s.DownSecs
		for c := int((s.Start - lo) / g.Step); c < cols; c++ {
			cLo, cHi := lo+float64(c)*g.Step, lo+float64(c+1)*g.Step
			overlap := math.Min(s.End, cHi) - math.Max(s.Start, cLo)
			if overlap <= 0 {
				break
			}
			frac := overlap / (s.End - s.Start)
			util[row][c] += s.Utilization * overlap
			weight[row][c] += overlap
			share[row][c] += s.MeanShare * run * frac
			shareW[row][c] += run * frac
		}
	}
	for i := range util {
		for c := range util[i] {
			if weight[i][c] > 0 {
				util[i][c] /= weight[i][c]
			} else {
				util[i][c] = math.NaN()
			}
			if shareW[i][c] > 0 {
				share[i][c] /= shareW[i][c]
			} else {
				share[i][c] = 1
			}
		}
	}
	g.Utilization = util
	g.Share = share
	return g
}
