package factory

import (
	"testing"

	"repro/internal/logs"
)

func TestOnRunLogHookFiresAtWriteTime(t *testing.T) {
	type event struct {
		status string
		at     float64
		end    float64
	}
	var events []event
	cfg := Config{
		Days: 2,
		Forecasts: []Assignment{
			{Spec: smallSpec("f1"), Node: "fnode01"},
		},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.AddRunLogHook(func(r *logs.RunRecord) {
		events = append(events, event{status: r.Status, at: c.Engine().Now(), end: r.End})
	})
	c.Run()

	var running, completed int
	for _, e := range events {
		switch e.status {
		case logs.StatusRunning:
			running++
		case logs.StatusCompleted:
			completed++
			// The database learns of completion the instant it happens.
			if e.at != e.end {
				t.Errorf("completed record delivered at %v, run ended at %v", e.at, e.end)
			}
		}
	}
	if running != 2 || completed != 2 {
		t.Fatalf("running=%d completed=%d, want 2 and 2", running, completed)
	}
	// Launch records arrive before their completion records.
	if events[0].status != logs.StatusRunning {
		t.Fatalf("first event = %v, want running", events[0].status)
	}
}
