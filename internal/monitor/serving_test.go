package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/sim"
)

// /api/serving serves exactly the edge's live Stats — the same snapshot
// the campaign-end summary and foreman -serving render.
func TestServingEndpointServesEdgeStats(t *testing.T) {
	e := sim.NewEngine()
	cl := cluster.New(e)
	srvNode := cl.AddNode("public-server", 2, 1)
	edge, err := serving.New(serving.Config{
		Engine: e,
		Server: srvNode,
		Products: []serving.Product{
			{Name: "x/plot", Forecast: "x", RenderWork: 100, Perish: 3600, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Scope("test").At(10, func() { edge.Publish("x/plot", 0, 10) })
	e.Scope("test").At(20, func() { edge.ArriveN("x/plot", 5) })
	e.Run()

	m := testMonitor(Options{})
	s := NewServer(m, nil)
	s.Attach("serving", func() any { return edge.Stats() })
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, body, ctype := get(t, srv, "/api/serving")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("serving endpoint = %d %s", code, ctype)
	}
	var got serving.Stats
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("serving response is not a Stats: %v\n%s", err, body)
	}
	want := edge.Stats()
	if got.Requests != want.Requests || got.Renders != want.Renders ||
		got.Coalesced != want.Coalesced || len(got.Products) != len(want.Products) {
		t.Fatalf("served %+v, edge has %+v", got, want)
	}
}

func TestServingEndpointWithoutAttachment(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, _, _ := get(t, srv, "/api/serving")
	if code != 404 {
		t.Errorf("unattached serving endpoint = %d, want 404", code)
	}
}

func TestDashboardHasServingPanel(t *testing.T) {
	m := testMonitor(Options{})
	srv := httptest.NewServer(NewServer(m, nil).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/")
	if code != 200 {
		t.Fatalf("dashboard = %d", code)
	}
	for _, want := range []string{"serving-panel", "api/serving", "serving-asof", "serving-products"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}
