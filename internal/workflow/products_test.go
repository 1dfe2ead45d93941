package workflow

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/vfs"
)

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
		if f := pe.ConsumedFraction(p.Name); f != 1 {
			t.Fatalf("product %s fraction %v", p.Name, f)
		}
	}
	if pe.ConsumedFraction("nope") != -1 {
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
