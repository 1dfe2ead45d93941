package workflow

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// fixture builds a one-node cluster and filesystem for local runs.
func fixture() (*sim.Engine, *cluster.Node, *vfs.FS) {
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("node1", 2, 1.0)
	fs := vfs.New(e.Now)
	return e, n, fs
}

func localConfig(spec *forecast.Spec, n *cluster.Node, fs *vfs.FS) Config {
	return Config{
		Spec:        spec,
		Dir:         "/runs/" + spec.Name + "/day1",
		SimNode:     n,
		SimFS:       fs,
		ProductNode: n,
		ProductFS:   fs,
	}
}

func TestSimOnlyRunWalltimeEqualsSimWork(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 1)
	spec.Products = nil // simulation only
	var done *Run
	cfg := localConfig(spec, n, fs)
	cfg.OnDone = func(r *Run) { done = r }
	r := Start(e, cfg)
	e.Run()
	if done != r || !r.Finished() {
		t.Fatal("run did not finish")
	}
	if math.Abs(r.Walltime()-spec.SimWork()) > 1e-6 {
		t.Fatalf("walltime = %v, want %v", r.Walltime(), spec.SimWork())
	}
	if r.SimFinishedAt() != r.FinishedAt() {
		t.Fatal("sim-only run should finish when the simulation does")
	}
}

func TestOutputFilesReachExactTotals(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 0)
	r := Start(e, localConfig(spec, n, fs))
	e.Run()
	for _, o := range spec.Outputs {
		got := fs.Size(r.OutputPath(o.Name))
		want := r.TotalOutputBytes(o.Name)
		if got != want {
			t.Fatalf("output %s: size %d, want %d", o.Name, got, want)
		}
		// A two-day run writes each day's files over half the increments.
		if want != r.incBytes[o.Name]*DefaultIncrements/2 {
			t.Fatalf("output %s: totals inconsistent", o.Name)
		}
	}
}

func TestDayOneOutputsCompleteMidRun(t *testing.T) {
	// Paper, Figure 6: 1_salt.63 (day-1 salinity) is fully written about
	// halfway through the run, well before 2_salt.63.
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 1)
	spec.Products = nil
	r := Start(e, localConfig(spec, n, fs))
	e.RunUntil(spec.SimWork() * 0.55)
	if got, want := fs.Size(r.OutputPath("1_salt.63")), r.TotalOutputBytes("1_salt.63"); got != want {
		t.Fatalf("1_salt.63 at 55%%: %d of %d", got, want)
	}
	if got, want := fs.Size(r.OutputPath("2_salt.63")), r.TotalOutputBytes("2_salt.63"); got >= want {
		t.Fatalf("2_salt.63 already complete at 55%%: %d of %d", got, want)
	}
	e.Run()
	if got, want := fs.Size(r.OutputPath("2_salt.63")), r.TotalOutputBytes("2_salt.63"); got != want {
		t.Fatalf("2_salt.63 final: %d of %d", got, want)
	}
}

func TestProductsCompleteAfterSim(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 6)
	r := Start(e, localConfig(spec, n, fs))
	e.Run()
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
	if r.FinishedAt() < r.SimFinishedAt() {
		t.Fatal("run finished before its simulation")
	}
	for _, p := range spec.Products {
		size := fs.Size(r.ProductPath(p.Name))
		if size <= 0 {
			t.Fatalf("product %s produced no data", p.Name)
		}
	}
	if fs.Size(r.ProcessDir()+"/master.out") <= 0 {
		t.Fatal("process directory empty")
	}
}

func TestProductsGeneratedIncrementally(t *testing.T) {
	// Initial data products must be available well before the run ends —
	// the incremental-delivery property the paper emphasizes.
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 1920, 20000, 4)
	r := Start(e, localConfig(spec, n, fs))
	simTime := spec.SimWork()
	e.RunUntil(simTime / 2)
	var early int64
	for _, p := range spec.Products {
		early += fs.Size(r.ProductPath(p.Name))
	}
	if early <= 0 {
		t.Fatal("no product data midway through the run")
	}
	e.Run()
	var final int64
	for _, p := range spec.Products {
		final += fs.Size(r.ProductPath(p.Name))
	}
	if early >= final {
		t.Fatalf("products did not keep growing: early=%d final=%d", early, final)
	}
}

func TestDependentProductLagsItsDependency(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 1920, 20000, 12) // includes animations with deps
	var anim *forecast.ProductSpec
	for i := range spec.Products {
		if len(spec.Products[i].DependsOn) > 0 {
			anim = &spec.Products[i]
			break
		}
	}
	if anim == nil {
		t.Fatal("catalog has no dependent product")
	}
	r := Start(e, localConfig(spec, n, fs))
	// Check at several points that the dependent product's consumed
	// fraction never exceeds its dependencies'.
	check := func() {
		a := consumedFraction(r.engine, anim.Name)
		for _, dep := range anim.DependsOn {
			d := consumedFraction(r.engine, dep)
			if a > d+1e-9 {
				t.Errorf("dependent %s at %.3f ahead of dependency %s at %.3f",
					anim.Name, a, dep, d)
			}
		}
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		e.RunUntil(spec.SimWork() * frac)
		check()
	}
	e.Run()
	if !r.Finished() {
		t.Fatal("run did not finish")
	}
}

func TestWalltimeNaNWhileRunning(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 2)
	r := Start(e, localConfig(spec, n, fs))
	if !math.IsNaN(r.Walltime()) {
		t.Fatal("Walltime should be NaN before completion")
	}
	e.Run()
	if math.IsNaN(r.Walltime()) {
		t.Fatal("Walltime should be set after completion")
	}
}

func TestTwoRunsOnOneNodeContend(t *testing.T) {
	// Two sim-only runs on a 1-CPU node take twice as long each.
	e := sim.NewEngine()
	c := cluster.New(e)
	n := c.AddNode("n", 1, 1.0)
	fs := vfs.New(e.Now)
	spec1 := forecast.NewSpec("f1", "r", 960, 10000, 1)
	spec1.Products = nil
	spec2 := forecast.NewSpec("f2", "r", 960, 10000, 1)
	spec2.Products = nil
	cfg1 := localConfig(spec1, n, fs)
	cfg2 := localConfig(spec2, n, fs)
	r1 := Start(e, cfg1)
	r2 := Start(e, cfg2)
	e.Run()
	want := 2 * spec1.SimWork()
	if math.Abs(r1.Walltime()-want) > 1 || math.Abs(r2.Walltime()-want) > 1 {
		t.Fatalf("walltimes %v, %v; want ≈%v", r1.Walltime(), r2.Walltime(), want)
	}
}

func TestRemoteProductGeneration(t *testing.T) {
	// Architecture-2 shape: products run on a second node against a
	// separate filesystem. Without rsync the inputs never appear there,
	// so the products wait; after manually mirroring, they finish.
	e := sim.NewEngine()
	c := cluster.New(e)
	client := c.AddNode("client", 1, 1.0)
	server := c.AddNode("server", 1, 1.0)
	clientFS := vfs.New(e.Now)
	serverFS := vfs.New(e.Now)
	spec := forecast.NewSpec("f", "r", 960, 10000, 3)
	cfg := Config{
		Spec:        spec,
		Dir:         "/runs/f/day1",
		SimNode:     client,
		SimFS:       clientFS,
		ProductNode: server,
		ProductFS:   serverFS,
	}
	r := Start(e, cfg)
	e.RunUntil(spec.SimWork() + 1000)
	if r.Finished() {
		t.Fatal("run finished without inputs at the server")
	}
	// Mirror the outputs instantaneously, as if rsync had delivered them.
	for _, o := range spec.Outputs {
		if err := serverFS.Append(r.OutputPath(o.Name), r.TotalOutputBytes(o.Name)); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if !r.Finished() {
		t.Fatal("run did not finish after inputs arrived")
	}
	// Products were computed at the server.
	for _, p := range spec.Products {
		if serverFS.Size(r.ProductPath(p.Name)) <= 0 {
			t.Fatalf("product %s missing at server", p.Name)
		}
		if clientFS.Exists(r.ProductPath(p.Name)) {
			t.Fatalf("product %s wrongly at client", p.Name)
		}
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 960, 10000, 2)
	cases := []Config{
		{},
		{Spec: spec},
		{Spec: spec, SimNode: n},
		{Spec: spec, SimNode: n, SimFS: fs}, // products but no product node
		{Spec: spec, SimNode: n, SimFS: fs, ProductNode: n, ProductFS: fs},    // missing dir
		{Spec: &forecast.Spec{Name: "bad"}, SimNode: n, SimFS: fs, Dir: "/x"}, // invalid spec
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Start did not panic", i)
				}
			}()
			Start(e, cfg)
		}()
	}
}

func TestWorkersLimitConcurrency(t *testing.T) {
	e, n, fs := fixture()
	spec := forecast.NewSpec("f", "r", 1920, 20000, 8)
	cfg := localConfig(spec, n, fs)
	cfg.Workers = 2
	Start(e, cfg)
	maxActive := 0
	for tm := 100.0; tm < spec.SimWork()*3; tm += 100 {
		e.RunUntil(tm)
		// Node active = sim (≤1) + product tasks (≤Workers).
		if a := n.Active(); a > maxActive {
			maxActive = a
		}
		if e.Pending() == 0 {
			break
		}
	}
	e.Run()
	if maxActive > 3 {
		t.Fatalf("max concurrent node jobs = %d, want ≤ 3 (sim + 2 workers)", maxActive)
	}
	if maxActive < 2 {
		t.Fatalf("max concurrent node jobs = %d; products never overlapped sim", maxActive)
	}
}
