package main

import (
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/engineprof"
	"repro/internal/sim"
)

// stepSeconds is the sim time one replay step advances: the paced
// control-room replay redraws the factory every step, so a step's wall
// latency is how long an operator watching the campaign waits.
const stepSeconds = 3600

// replay advances eng in sim-hour steps until horizon (or, for an
// unbounded horizon, until the queue drains), returning every step's wall
// latency and their sum — the kernel's RunUntil wall time.
func replay(eng *sim.Engine, horizon float64) (steps []float64, total float64) {
	for eng.Now() < horizon && (eng.Pending() > 0 || !math.IsInf(horizon, 1)) {
		t0 := time.Now()
		eng.RunUntil(math.Min(eng.Now()+stepSeconds, horizon))
		d := since(t0)
		steps = append(steps, d)
		total += d
	}
	return steps, total
}

// engineLayers charges a traced replay to the kernel and to each scheduling
// label. With handler sampling at 1, the profiler's per-label wall time is
// exact; the kernel's self time is the RunUntil wall minus every handler.
func engineLayers(b *breakdown, rep *engineprof.Report, runWall float64) {
	var handlers float64
	by := map[string]engineprof.LabelReport{}
	for _, l := range rep.Labels {
		s := float64(l.WallNS) / 1e9
		b.self["handler:"+l.Label] = s
		handlers += s
		by[l.Label] = l
	}
	self := runWall - handlers
	b.self["sim.kernel"] = self
	fired := rep.TotalFired()
	v := b.values
	v["sim.events_fired"] = float64(fired)
	v["sim.events_cancelled"] = float64(rep.TotalCancelled())
	v["sim.peak_queue_depth"] = float64(rep.MaxDepth())
	v["sim.self_s"] = self
	if fired > 0 {
		v["sim.ns_per_event"] = self * 1e9 / float64(fired)
	}
	secs := func(labels ...string) float64 {
		var s float64
		for _, l := range labels {
			s += float64(by[l].WallNS) / 1e9
		}
		return s
	}
	ps := by["ps"]
	v["ps.handler_s"] = secs("ps")
	v["ps.fired"] = float64(ps.Fired)
	v["ps.cancelled"] = float64(ps.Cancelled)
	if ps.Scheduled > 0 {
		v["ps.cancel_ratio"] = float64(ps.Cancelled) / float64(ps.Scheduled)
	}
	v["workflow.handler_s"] = secs("workflow")
	v["workflow.fired"] = float64(by["workflow"].Fired)
	v["factory.handler_s"] = secs("factory")
	v["monitor.handler_s"] = secs("monitor")
	v["monitor.ticks"] = float64(by["monitor"].Fired)
	v["harvest.handler_s"] = secs("harvest")
	v["usage.handler_s"] = secs("usage")
	v["serving.handler_s"] = secs("serving", "load")
}

// digest hashes simulated outputs bit-exactly, so two iterations of one
// seed can be compared.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digest) num(x float64) {
	if math.IsNaN(x) {
		x = math.NaN() // one canonical NaN
	}
	u := math.Float64bits(x)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(u >> (8 * i))
	}
	d.h.Write(buf[:])
}

func (d *digest) count(n int64) { d.num(float64(n)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
