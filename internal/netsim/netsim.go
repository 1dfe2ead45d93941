// Package netsim models the factory's local area network: point-to-point
// links with finite bandwidth shared fairly among concurrent transfers, and
// an rsync-like agent that periodically mirrors growing files from one
// virtual filesystem to another.
//
// The paper's data-flow architectures (§4.2) both run `rsync` in the
// background to incrementally copy completed portions of model outputs and
// data products to the public server; the Rsync type reproduces that
// behaviour, including the lag between data being produced and appearing
// at the server.
package netsim

import (
	"fmt"

	"repro/internal/ps"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Link is a network path with a fixed bandwidth in bytes per second.
// Concurrent transfers share the bandwidth fairly.
type Link struct {
	name string
	res  *ps.Resource
	eng  *sim.Engine

	bytesMoved float64

	tel      *telemetry.Telemetry
	mBytes   *telemetry.Counter
	mLatency *telemetry.Histogram
}

// NewLink creates a link with the given bandwidth (bytes/second).
func NewLink(eng *sim.Engine, name string, bandwidth float64) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q needs positive bandwidth, got %v", name, bandwidth))
	}
	return &Link{
		name: name,
		eng:  eng,
		res:  ps.NewResource(eng, "link:"+name, bandwidth, bandwidth, nil),
	}
}

// BytesMoved returns the total bytes delivered over the link so far.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Instrument attaches telemetry to the link: net_bytes_moved_total and a
// transfer-latency histogram, both labelled by link, plus one "transfer"
// span per Transfer on the track "link:<name>". A nil argument detaches.
func (l *Link) Instrument(tel *telemetry.Telemetry) {
	l.tel = tel
	reg := tel.Registry()
	if reg == nil {
		l.mBytes, l.mLatency = nil, nil
		return
	}
	reg.Describe("net_bytes_moved_total", "Bytes delivered over a network link.")
	reg.Describe("net_transfer_latency_seconds", "Start-to-delivery latency of link transfers.")
	l.mBytes = reg.Counter("net_bytes_moved_total", telemetry.Labels{"link": l.name})
	l.mLatency = reg.Histogram("net_transfer_latency_seconds", nil, telemetry.Labels{"link": l.name})
}

// Transfer moves size bytes over the link, invoking done on delivery.
func (l *Link) Transfer(label string, size float64, done func()) *ps.Task {
	start := l.eng.Now()
	tr := l.tel.Trace()
	var span int64
	if tr != nil {
		span = tr.Begin("transfer", label, "link:"+l.name, 0)
		tr.SetArg(span, "bytes", fmt.Sprintf("%.0f", size))
	}
	return l.res.Submit(label, size, func() {
		l.bytesMoved += size
		l.mBytes.Add(size)
		l.mLatency.Observe(l.eng.Now() - start)
		tr.End(span)
		if done != nil {
			done()
		}
	})
}

// Observer receives a notification each time rsync delivers bytes for a
// file at the destination: the virtual time, the destination path, and the
// destination file's size after the delivery.
type Observer func(t float64, path string, destSize int64)

// Rsync periodically mirrors files under a set of source roots to the same
// paths in a destination filesystem. Each scan starts one transfer per file
// covering the bytes appended since the last delivered offset; a file with
// a transfer already in flight is picked up again on a later scan, exactly
// like repeated rsync invocations over a growing file.
type Rsync struct {
	eng      *sim.Engine
	src, dst *vfs.FS
	link     *Link
	interval float64
	roots    []string

	sent     map[string]int64 // bytes delivered to dst per path
	inflight map[string]bool
	observer Observer
	sched    sim.Scope // scan timers, labeled "netsim" for the kernel profiler
	timer    sim.Timer
	stopped  bool
}

// NewRsync creates an rsync agent mirroring the given roots (directories or
// files) from src to dst over link, scanning every interval seconds.
// observer may be nil. Call Start to begin scanning.
func NewRsync(eng *sim.Engine, src, dst *vfs.FS, link *Link, interval float64, roots []string, observer Observer) *Rsync {
	if interval <= 0 {
		panic(fmt.Sprintf("netsim: rsync interval must be positive, got %v", interval))
	}
	return &Rsync{
		eng:      eng,
		sched:    eng.Scope("netsim"),
		src:      src,
		dst:      dst,
		link:     link,
		interval: interval,
		roots:    append([]string(nil), roots...),
		sent:     make(map[string]int64),
		inflight: make(map[string]bool),
		observer: observer,
	}
}

// Start begins periodic scanning. The first scan happens one interval from
// now (rsync in the factory is started alongside the run scripts). Start
// after Stop re-arms the agent — the factory restarts rsync daemons
// between campaigns.
func (r *Rsync) Start() {
	if r.timer.Active() {
		return
	}
	r.stopped = false
	r.timer = r.sched.After(r.interval, r.tick)
}

// Stop halts future scans. In-flight transfers complete normally.
func (r *Rsync) Stop() {
	r.stopped = true
	r.timer.Cancel()
	r.timer = sim.Timer{}
}

// Synced reports whether every file under the roots has been fully
// delivered (source size equals delivered bytes and nothing is in flight).
func (r *Rsync) Synced() bool {
	synced := true
	r.eachSourceFile(func(info vfs.FileInfo) {
		if r.sent[info.Path] < info.Size || r.inflight[info.Path] {
			synced = false
		}
	})
	return synced
}

func (r *Rsync) eachSourceFile(fn func(info vfs.FileInfo)) {
	for _, root := range r.roots {
		if !r.src.Exists(root) {
			continue
		}
		_ = r.src.Walk(root, func(info vfs.FileInfo) error {
			if !info.IsDir {
				fn(info)
			}
			return nil
		})
	}
}

// tick runs one scan and reschedules.
func (r *Rsync) tick() {
	r.timer = sim.Timer{}
	r.scan()
	if !r.stopped {
		r.timer = r.sched.After(r.interval, r.tick)
	}
}

// scan starts transfers for every file with undelivered bytes.
func (r *Rsync) scan() {
	r.eachSourceFile(func(info vfs.FileInfo) {
		path := info.Path
		if r.inflight[path] {
			return
		}
		delta := info.Size - r.sent[path]
		if delta <= 0 {
			return
		}
		r.inflight[path] = true
		r.link.Transfer("rsync:"+path, float64(delta), func() {
			r.deliver(path, delta)
		})
	})
}

// deliver applies a completed transfer to the destination filesystem.
func (r *Rsync) deliver(path string, delta int64) {
	r.inflight[path] = false
	r.sent[path] += delta
	if err := r.dst.Append(path, delta); err != nil {
		panic(fmt.Sprintf("netsim: rsync deliver %s: %v", path, err))
	}
	if r.observer != nil {
		r.observer(r.eng.Now(), path, r.dst.Size(path))
	}
}
