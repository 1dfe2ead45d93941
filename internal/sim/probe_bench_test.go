package sim

import (
	"testing"
	"time"
)

type nopProbe struct{}

func (nopProbe) EventScheduled(label string, now, when float64, pending int)                  {}
func (nopProbe) EventFired(label string, born, when float64, wall time.Duration, pending int) {}
func (nopProbe) EventCancelled(label string, born, when, now float64, pending int)            {}

func benchEvents(b *testing.B, attach Probe) {
	e := NewEngine()
	if attach != nil {
		e.SetProbe(attach)
	}
	s := e.Scope("bench")
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(e.Now(), nop)
		e.step()
	}
}

func BenchmarkEventDetached(b *testing.B) { benchEvents(b, nil) }
func BenchmarkEventNopProbe(b *testing.B) { benchEvents(b, nopProbe{}) }

// BenchmarkEventDeepQueue fires chained near-term events while 8,000
// far-future events stay pending: fleet-replay's queue shape (one pending
// launch per run, one completion chain per node), where every fire sifts
// through a deep heap. BenchmarkEventDetached never holds more than one
// event, and BenchmarkEngineScheduleAndRun rebuilds its queue each run.
func BenchmarkEventDeepQueue(b *testing.B) {
	const far, chains = 8000, 400
	e := NewEngine()
	s := e.Scope("bench")
	nop := func() {}
	for i := 0; i < far; i++ {
		s.At(1e12+float64(i), nop)
	}
	for k := 0; k < chains; k++ {
		d := 30 + float64(k)/chains
		var next func()
		next = func() { s.After(d, next) }
		s.After(d, next)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
