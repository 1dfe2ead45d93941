package observe_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/factory"
	"repro/internal/forecast"
	"repro/internal/observe"
	"repro/internal/telemetry"
)

// every is a Set with each observer on.
var every = observe.Set{HarvestEvery: 6 * 3600, UsageEvery: 900, ServingUsers: 2000, Monitor: true, EngineProf: true}

// growingCampaign is a one-node plant that grows on day 2: a one-CPU node
// comes up and three new forecasts land on it, more runs than it has CPUs
// for the hours they take.
func growingCampaign(t *testing.T, days int) *factory.Campaign {
	t.Helper()
	spec := func(name string) *forecast.Spec {
		s := forecast.NewSpec(name, name, 2880, 14000, 2)
		s.StartOffset = 3600
		return s
	}
	c, err := factory.New(factory.Config{
		Days:      days,
		Nodes:     []factory.NodeSpec{{Name: "fnode01", CPUs: 2, Speed: 1}},
		Forecasts: []factory.Assignment{{Spec: spec("f1"), Node: "fnode01"}},
		Events: []factory.Event{
			factory.AddNode{Day: 2, Node: factory.NodeSpec{Name: "late", CPUs: 1, Speed: 1}},
			factory.AddForecast{Day: 2, Spec: spec("f2"), Node: "late"},
			factory.AddForecast{Day: 2, Spec: spec("f3"), Node: "late"},
			factory.AddForecast{Day: 2, Spec: spec("f4"), Node: "late"},
		},
		Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSaturationRuleCoversAddedNodes: a node an AddNode event brings up
// mid-campaign gets the saturation rule the starting nodes get, so its
// sustained overload pages.
func TestSaturationRuleCoversAddedNodes(t *testing.T) {
	c := growingCampaign(t, 3)
	o, err := observe.Observe(c, observe.Set{UsageEvery: 900, Monitor: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range o.Mon.Alerts() {
		if a.Rule == "saturation:late" {
			return
		}
	}
	t.Fatalf("no saturation:late alert among %d: %+v", len(o.Mon.Alerts()), o.Mon.Alerts())
}

// TestRoutesDoNotRaceTheReplay steps a campaign the way a paced replay
// does, one sim-hour per RunUntil, and closes it out, while other
// goroutines request every control-room route; run it under -race. The
// day-2 AddForecast writes the campaign's spec map while the forensics
// route builds its plan, and Close's report loads write the database
// while every route answers.
func TestRoutesDoNotRaceTheReplay(t *testing.T) {
	c := growingCampaign(t, 3)
	o, err := observe.Observe(c, every)
	if err != nil {
		t.Fatal(err)
	}
	h := o.Server().Handler()
	routes := []string{"/", "/healthz", "/metrics", "/api/alerts", "/api/status", "/api/slo",
		"/api/harvest", "/api/utilization", "/api/forensics", "/api/spc", "/api/engine", "/api/serving"}

	// One poller per route, so a slow route does not keep the others out
	// of a short window such as Close's report loads.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range routes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: %d", path, rec.Code)
				}
			}
		}()
	}

	c.Prepare()
	eng := c.Engine()
	for eng.Now() < c.Horizon() {
		eng.RunUntil(min(eng.Now()+3600, c.Horizon()))
		eng.ObserveReplayLag(eng.Now())
	}
	// The control room keeps serving while the campaign closes out.
	c.Finish()
	err = o.Close()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
