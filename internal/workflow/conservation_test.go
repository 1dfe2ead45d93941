package workflow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Property: byte conservation. For random forecast shapes, the completed
// run's filesystem holds exactly the declared output totals, and each
// product's bytes equal its class ratio × scale × consumed input (within
// per-task rounding).
func TestPropertyRunByteConservation(t *testing.T) {
	f := func(tsRaw, sidesRaw uint16, prodRaw, incrRaw uint8) bool {
		ts := int(tsRaw%2000) + 200
		sides := int(sidesRaw%20000) + 2000
		nProducts := int(prodRaw%12) + 1
		increments := int(incrRaw%60) + 12

		e := sim.NewEngine()
		c := cluster.New(e)
		n := c.AddNode("n", 2, 1.0)
		fs := vfs.New(e.Now)
		spec := forecast.NewSpec("f", "r", ts, sides, nProducts)
		cfg := Config{
			Spec:        spec,
			Dir:         "/runs/f/d",
			SimNode:     n,
			SimFS:       fs,
			ProductNode: n,
			ProductFS:   fs,
			Increments:  increments,
		}
		r := Start(e, cfg)
		e.Run()
		if !r.Finished() {
			t.Logf("run did not finish (ts=%d sides=%d products=%d incr=%d)", ts, sides, nProducts, increments)
			return false
		}
		// Output totals are exact.
		for _, o := range spec.Outputs {
			if fs.Size(r.OutputPath(o.Name)) != r.TotalOutputBytes(o.Name) {
				t.Logf("output %s: %d != %d", o.Name, fs.Size(r.OutputPath(o.Name)), r.TotalOutputBytes(o.Name))
				return false
			}
		}
		// Product bytes match ratio × consumed input, within one rounding
		// unit per product task (bounded by number of tasks ≈ increments ×
		// products; use a generous 0.5 byte per possible task).
		for _, p := range spec.Products {
			var totalIn float64
			for _, in := range p.Inputs {
				totalIn += float64(r.TotalOutputBytes(in))
			}
			_, ratio := p.Class.Profile()
			want := ratio * p.Scale * totalIn
			got := float64(fs.Size(r.ProductPath(p.Name)))
			slack := 0.5*float64(increments) + 2
			if math.Abs(got-want) > slack {
				t.Logf("product %s: got %v, want %v ± %v", p.Name, got, want, slack)
				return false
			}
			// Every product fully consumed its input.
			if frac := consumedFraction(r.engine, p.Name); math.Abs(frac-1) > 1e-6 {
				t.Logf("product %s consumed fraction %v", p.Name, frac)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: run walltime is invariant to the increment count for
// simulation-only runs (chunking is an implementation detail, not a
// workload change).
func TestPropertyWalltimeInvariantToIncrements(t *testing.T) {
	f := func(incrRaw uint8) bool {
		increments := int(incrRaw%90) + 6
		e := sim.NewEngine()
		c := cluster.New(e)
		n := c.AddNode("n", 2, 1.0)
		fs := vfs.New(e.Now)
		spec := forecast.NewSpec("f", "r", 960, 10000, 1)
		spec.Products = nil
		cfg := Config{
			Spec: spec, Dir: "/runs/f/d",
			SimNode: n, SimFS: fs,
			Increments: increments,
		}
		r := Start(e, cfg)
		e.Run()
		return math.Abs(r.Walltime()-spec.SimWork()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
