package workflow

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// consumedFraction reports the named product's progress in [0, 1], or
// -1 for an unknown product or a simulation-only run.
func consumedFraction(p *ProductEngine, name string) float64 {
	if p == nil {
		return -1
	}
	st, ok := p.byName[name]
	if !ok {
		return -1
	}
	return st.consumedFraction()
}

func engineFixture() (*sim.Engine, *cluster.Node, *vfs.FS) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("server", 1, 1.0)
	fs := vfs.New(e.Now)
	return e, n, fs
}

func TestProductEngineStandalone(t *testing.T) {
	e, n, fs := engineFixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 3)
	totals := map[string]int64{}
	for _, o := range spec.Outputs {
		totals[o.Name] = int64(spec.OutputBytes() * o.Share)
	}
	var doneAt float64
	pe := StartProducts(e, ProductConfig{
		Products:    spec.Products,
		Dir:         "/runs/f/d",
		Node:        n,
		FS:          fs,
		InputTotals: totals,
		OnDone:      func() { doneAt = e.Now() },
	})
	// Inputs appear all at once (as if rsync'd in one burst).
	for name, total := range totals {
		if err := fs.Append("/runs/f/d/outputs/"+name, total); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(7 * 86400)
	if !pe.Finished() || doneAt <= 0 || pe.FinishedAt() != doneAt {
		t.Fatalf("engine finished=%v doneAt=%v finishedAt=%v", pe.Finished(), doneAt, pe.FinishedAt())
	}
	for _, p := range spec.Products {
		if fs.Size(pe.ProductPath(p.Name)) <= 0 {
			t.Fatalf("product %s empty", p.Name)
		}
		if f := consumedFraction(pe, p.Name); f != 1 {
			t.Fatalf("product %s fraction %v", p.Name, f)
		}
	}
	if consumedFraction(pe, "nope") != -1 {
		t.Fatal("unknown product should report -1")
	}
}

func TestProductEngineEmptyCatalogFinishesImmediately(t *testing.T) {
	e, n, fs := engineFixture()
	done := false
	pe := StartProducts(e, ProductConfig{
		Dir:    "/runs/f/d",
		Node:   n,
		FS:     fs,
		OnDone: func() { done = true },
	})
	if !pe.Finished() || !done {
		t.Fatal("empty catalog should finish at start")
	}
}

func TestProductEnginePanicsOnBadConfig(t *testing.T) {
	e, n, fs := engineFixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 1)
	cases := []ProductConfig{
		{Products: spec.Products, Dir: "/d", FS: fs},          // no node
		{Products: spec.Products, Dir: "/d", Node: n},         // no fs
		{Products: spec.Products, Node: n, FS: fs},            // no dir
		{Products: spec.Products, Dir: "/d", Node: n, FS: fs}, // no totals
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: StartProducts did not panic", i)
				}
			}()
			StartProducts(e, cfg)
		}()
	}
}

// A poll that finds nothing new to dispatch reads every input through
// its handle (or probes the outputs directory for one not written yet)
// and allocates nothing, telemetry attached.
func TestIdlePollAllocatesNothing(t *testing.T) {
	e, n, fs := engineFixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 3)
	totals := map[string]int64{}
	for _, o := range spec.Outputs {
		totals[o.Name] = int64(spec.OutputBytes() * o.Share)
	}
	pe := StartProducts(e, ProductConfig{
		Products:    spec.Products,
		Dir:         "/runs/f/d",
		Node:        n,
		FS:          fs,
		InputTotals: totals,
		Telemetry:   telemetry.New(),
	})
	// Day 1's outputs are half written; the later days' do not exist.
	written := 0
	for _, o := range spec.Outputs {
		if o.Day == 1 {
			written++
			if err := fs.Append("/runs/f/d/outputs/"+o.Name, totals[o.Name]/2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if written == 0 || written == len(spec.Outputs) {
		t.Fatalf("fixture writes %d of %d outputs, want some but not all", written, len(spec.Outputs))
	}
	e.RunUntil(86400) // consume what is there
	if pe.Finished() || e.Pending() != 1 {
		t.Fatalf("engine finished=%v with %d pending events, want an idle poll loop", pe.Finished(), e.Pending())
	}
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + DefaultPoll) }); n != 0 {
		t.Fatalf("an idle poll allocates %.1f objects, want 0", n)
	}
}
