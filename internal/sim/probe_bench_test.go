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
