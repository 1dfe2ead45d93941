package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"unsafe"
)

// Span is one timed operation in the factory's hierarchy:
// campaign → day → run → {simulation, product task, rsync transfer,
// planner pass}, as Tracer.Spans reports it. Spans are opened by
// Tracer.Begin, which returns the span's ID, and closed by Tracer.End.
type Span struct {
	ID     int64
	Parent int64 // 0 = root
	Cat    string
	Name   string
	// Track groups spans onto one display row (a Chrome trace "thread"):
	// the node name for runs and tasks, "factory" for campaign/day spans,
	// the link name for transfers.
	Track string
	Start float64 // sim seconds
	End   float64 // sim seconds; the current sim time while still open
	Args  map[string]string
}

// spanRec is the tracer's own record of one span. It holds no pointers
// (the strings are indices into the tracer's intern table, the
// annotations live in Tracer.args), so the garbage collector never
// scans the record chunks. A campaign records tens of thousands of
// product-task spans, and a pointer-bearing record would be re-scanned
// on every collection cycle for the rest of the campaign.
type spanRec struct {
	parent           int64
	start, end       float64
	cat, name, track uint32
	finished         bool
	hasArgs          bool
}

// Tracer records sim-time spans. Create with NewTracer. A nil Tracer
// hands out span ID 0, and every method ignores ID 0, so call sites need
// no telemetry checks. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	clock func() float64
	// chunks store the records in creation order: span ID i lives at
	// chunks[(i-1)/tracerChunk][(i-1)%tracerChunk]. Chunks are never
	// grown, so recording a span never copies earlier ones.
	chunks [][]spanRec
	n      int64
	strs   []string          // interned Cat, Name and Track values; strs[0] is ""
	strID  map[string]uint32 // string → index in strs
	args   map[int64]map[string]string
	// hot caches strID by string address for the few strings a hot path
	// passes over and over (a product task's category, name and node).
	// A zero slot holds "" at index 0, which is right.
	hot [256]struct {
		s  string
		id uint32
	}
}

// tracerChunk is the span-record chunk size.
const tracerChunk = 256

// NewTracer returns a tracer reading sim time from clock (nil clock
// pins time at 0 until SetClock installs a real one).
func NewTracer(clock func() float64) *Tracer {
	t := &Tracer{strs: []string{""}, strID: map[string]uint32{"": 0}}
	t.SetClock(clock)
	return t
}

// SetClock installs the sim-time source, typically Engine.Now. The
// factory wires this automatically for the Telemetry it is given.
func (t *Tracer) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	t.clock = clock
	t.mu.Unlock()
}

// rec returns the record of span id. Callers hold t.mu.
func (t *Tracer) rec(id int64) *spanRec {
	i := id - 1
	return &t.chunks[i/tracerChunk][i%tracerChunk]
}

// intern returns s's index in the string table. Callers hold t.mu.
func (t *Tracer) intern(s string) uint32 {
	h := &t.hot[uintptr(unsafe.Pointer(unsafe.StringData(s)))>>4%uintptr(len(t.hot))]
	if h.s == s {
		return h.id
	}
	id, ok := t.strID[s]
	if !ok {
		id = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.strID[s] = id
	}
	h.s, h.id = s, id
	return id
}

// setArg annotates span id. Callers hold t.mu.
func (t *Tracer) setArg(id int64, key, value string) {
	m := t.args[id]
	if m == nil {
		if t.args == nil {
			t.args = make(map[int64]map[string]string)
		}
		m = make(map[string]string, 4)
		t.args[id] = m
	}
	m[key] = value
	t.rec(id).hasArgs = true
}

// Begin opens a span under parent (0 for a root span) at the current
// sim time and returns its ID. A span with no track of its own inherits
// its parent's. Begin allocates nothing once the span's strings are
// interned, so a hot path may open many short spans, such as a
// campaign's product tasks.
func (t *Tracer) Begin(cat, name, track string, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := spanRec{parent: parent, start: t.clock(), cat: t.intern(cat), name: t.intern(name)}
	if track == "" && parent > 0 && parent <= t.n {
		r.track = t.rec(parent).track
	} else {
		r.track = t.intern(track)
	}
	if t.n%tracerChunk == 0 {
		t.chunks = append(t.chunks, make([]spanRec, tracerChunk))
	}
	t.n++
	*t.rec(t.n) = r
	return t.n
}

// SetArg attaches a key/value annotation (forecast name, day, bytes...)
// to span id. ID 0 is ignored.
func (t *Tracer) SetArg(id int64, key, value string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	t.setArg(id, key, value)
	t.mu.Unlock()
}

// End closes span id at the current sim time. Ending an already-ended
// span, or ID 0, is a no-op.
func (t *Tracer) End(id int64) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	if r := t.rec(id); !r.finished {
		r.finished = true
		r.end = t.clock()
	}
	t.mu.Unlock()
}

// EndOpen closes every unfinished span at the current sim time — called
// once when a campaign stops so interrupted runs still export with their
// observed extent.
func (t *Tracer) EndOpen() {
	if t == nil {
		return
	}
	t.mu.Lock()
	now := t.clock()
	for id := int64(1); id <= t.n; id++ {
		if r := t.rec(id); !r.finished {
			r.finished = true
			r.end = now
			t.setArg(id, "interrupted", "true")
		}
	}
	t.mu.Unlock()
}

// Len returns the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.n)
}

// Spans returns a copy of all recorded spans in creation order.
// Unfinished spans are reported with End equal to the current sim time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	out := make([]Span, t.n)
	for i := range out {
		id := int64(i) + 1
		r := t.rec(id)
		c := Span{
			ID:     id,
			Parent: r.parent,
			Cat:    t.strs[r.cat],
			Name:   t.strs[r.name],
			Track:  t.strs[r.track],
			Start:  r.start,
			End:    r.end,
		}
		if !r.finished {
			c.End = now
		}
		if r.hasArgs {
			src := t.args[id]
			c.Args = make(map[string]string, len(src))
			for k, v := range src {
				c.Args[k] = v
			}
		}
		out[i] = c
	}
	return out
}

// chromeEvent is one Chrome trace-event object. ph "X" is a complete
// event (ts + dur); ph "M" is metadata (thread names).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders all spans as Chrome trace-event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev. Sim seconds map to
// trace microseconds; each Track becomes a named thread.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()

	// Assign stable thread ids per track, in first-appearance order.
	tids := make(map[string]int)
	var tracks []string
	for _, s := range spans {
		if _, ok := tids[s.Track]; !ok {
			tids[s.Track] = len(tids) + 1
			tracks = append(tracks, s.Track)
		}
	}
	sort.Strings(tracks)
	for i, track := range tracks {
		tids[track] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)+len(tracks))
	for _, track := range tracks {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]string{"name": track},
		})
	}
	for _, s := range spans {
		args := s.Args
		if args == nil {
			args = map[string]string{}
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (s.End - s.Start) * 1e6,
			Pid:  1,
			Tid:  tids[s.Track],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		TimeUnit    string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// Telemetry bundles the two collectors every instrumented component
// accepts: a metrics registry and a span tracer. A nil *Telemetry (and
// nil fields) disables collection with no call-site branching.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New returns a Telemetry with a fresh registry and tracer. The tracer's
// clock starts pinned at 0; components owning a sim engine (factory
// campaigns, dataflow experiments) install their clock via SetClock.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Tracer: NewTracer(nil)}
}

// SetClock installs the sim-time source on the tracer (nil-safe).
func (t *Telemetry) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.Tracer.SetClock(clock)
}

// Registry returns the metrics registry (nil on nil Telemetry), so
// instrumented components can write `tel.Registry().Counter(...)`
// without a nil check.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Trace returns the tracer (nil on nil Telemetry).
func (t *Telemetry) Trace() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}
