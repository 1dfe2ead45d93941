package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's CPU time (user+sys over every thread) from
// rusage, so GC workers running beside the simulation are charged too.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// runtimeStats are Go runtime counters read at the edges of a timed part.
// They overlap the layer self times (GC assists run inside handlers), so
// they are reported beside the breakdown, never added to it.
type runtimeStats struct {
	gcCPU, allocBytes, gcCycles float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeStats{gcCPU: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64()), gcCycles: float64(s[2].Value.Uint64())}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{gcCPU: a.gcCPU - b.gcCPU, allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// liveHeap reads the heap's object bytes; right after runtime.GC, which
// finishes sweeping, that is the live heap.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapWatch samples the heap in use (live objects plus unswept garbage)
// every millisecond until stopped, keeping the peak. runtime/metrics reads
// do not stop the world, unlike runtime.ReadMemStats.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{})}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// Stop ends sampling and returns the peak heap in bytes.
func (w *heapWatch) Stop() float64 {
	close(w.stop)
	w.done.Wait()
	return float64(w.peak)
}

// timedPart measures one timed part of an iteration: wall, process CPU,
// peak heap, and the Go runtime's GC counters.
type timedPart struct {
	wall0 time.Time
	cpu0  float64
	rt0   runtimeStats
	heap  *heapWatch
}

func startTimed() *timedPart {
	// Each timed part pays for its own garbage, not its predecessor's, and
	// starts from the same memory state: with the heap returned to the OS,
	// a later iteration does not run on pages an earlier one scattered.
	debug.FreeOSMemory()
	return &timedPart{heap: watchHeap(), rt0: readRuntime(), cpu0: cpuSeconds(), wall0: time.Now()}
}

func (t *timedPart) stop(r *iterResult) {
	r.span = time.Since(t.wall0).Seconds()
	r.wall = r.span
	r.cpu = cpuSeconds() - t.cpu0
	r.runtime = readRuntime().sub(t.rt0)
	r.peakHeap = t.heap.Stop()
}

// timeSetup times one set-up sample from a collected heap, so a sample
// does not pay for a collection of its predecessor's garbage.
func timeSetup(fn func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return since(t0), err
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when empty); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
