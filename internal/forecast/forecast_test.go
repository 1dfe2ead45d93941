package forecast

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTillamookCalibration(t *testing.T) {
	s := Tillamook()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig 8: ≈40,000 s walltime at 5760 timesteps with products generated
	// at the same node: isolated sim work × co-location slowdown.
	if w := s.SimWork() * SimColocationSlowdown; math.Abs(w-40000) > 1 {
		t.Fatalf("Tillamook co-located sim time = %v, want ≈40000", w)
	}
	// Doubling timesteps doubles the work (paper: day 21).
	d := s.Clone()
	d.Timesteps = 11520
	if w := d.SimWork(); math.Abs(w-2*s.SimWork()) > 1 {
		t.Fatalf("doubled-timestep SimWork = %v, want %v", w, 2*s.SimWork())
	}
}

func TestSimWorkLinearInTimestepsAndSides(t *testing.T) {
	f := func(tsRaw, sidesRaw uint16, factorRaw uint8) bool {
		ts := int(tsRaw%10000) + 100
		sides := int(sidesRaw%50000) + 1000
		factor := 0.5 + float64(factorRaw%10)*0.1
		s := NewSpec("f", "r", ts, sides, 4)
		s.Code.CostFactor = factor
		base := s.SimWork()
		s2 := s.Clone()
		s2.Timesteps = ts * 2
		s3 := s.Clone()
		s3.Mesh.Sides = sides * 3
		return math.Abs(s2.SimWork()-2*base) < 1e-6*base &&
			math.Abs(s3.SimWork()-3*base) < 1e-6*base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeVersionScalesWork(t *testing.T) {
	s := NewSpec("f", "r", 5760, 30000, 4)
	base := s.SimWork()
	s.Code.CostFactor = 1.65
	if got := s.SimWork(); math.Abs(got-1.65*base) > 1e-6*base {
		t.Fatalf("SimWork with factor 1.65 = %v, want %v", got, 1.65*base)
	}
}

func TestProductBytesShareAround20Percent(t *testing.T) {
	// §4.2: "For many forecasts, data products account for as much as 20%
	// of all data generated in a run."
	s := DataflowForecast()
	share := s.ProductBytes() / (s.OutputBytes() + s.ProductBytes())
	if share < 0.10 || share > 0.30 {
		t.Fatalf("product data share = %v, want ≈0.20", share)
	}
}

func TestStandardOutputsSharesSumToOne(t *testing.T) {
	for _, days := range []int{1, 2, 3} {
		outs := StandardOutputs(days)
		var sum float64
		for _, o := range outs {
			sum += o.Share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("days=%d: shares sum to %v", days, sum)
		}
	}
}

func TestStandardOutputsNaming(t *testing.T) {
	outs := StandardOutputs(2)
	var names []string
	for _, o := range outs {
		names = append(names, o.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"1_salt.63", "2_salt.63", "1_hvel.64", "2_elev.63"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("outputs %v missing %s", names, want)
		}
	}
}

func TestStandardProductsDependenciesWithinPrefix(t *testing.T) {
	outs := StandardOutputs(2)
	for n := 1; n <= 12; n++ {
		prods := StandardProducts(outs, n)
		if len(prods) != n {
			t.Fatalf("n=%d: got %d products", n, len(prods))
		}
		names := make(map[string]bool)
		for _, p := range prods {
			names[p.Name] = true
		}
		for _, p := range prods {
			for _, d := range p.DependsOn {
				if !names[d] {
					t.Fatalf("n=%d: product %s depends on absent %s", n, p.Name, d)
				}
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := func() *Spec { return NewSpec("f", "r", 5760, 30000, 4) }
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero timesteps", func(s *Spec) { s.Timesteps = 0 }},
		{"zero sides", func(s *Spec) { s.Mesh.Sides = 0 }},
		{"zero cost factor", func(s *Spec) { s.Code.CostFactor = 0 }},
		{"no outputs", func(s *Spec) { s.Outputs = nil }},
		{"duplicate output", func(s *Spec) { s.Outputs = append(s.Outputs, s.Outputs[0]) }},
		{"bad share sum", func(s *Spec) { s.Outputs[0].Share += 0.5 }},
		{"unknown input", func(s *Spec) { s.Products[0].Inputs = []string{"nope"} }},
		{"unknown dep", func(s *Spec) { s.Products[0].DependsOn = []string{"nope"} }},
		{"zero scale", func(s *Spec) { s.Products[0].Scale = 0 }},
		{"duplicate product", func(s *Spec) { s.Products = append(s.Products, s.Products[0]) }},
		{"no product inputs", func(s *Spec) {
			s.Products[0].Inputs = nil
			s.Products[0].DependsOn = nil
		}},
	}
	for _, tc := range cases {
		s := good()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad spec", tc.name)
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := Tillamook()
	c := s.Clone()
	c.Timesteps = 1
	c.Outputs[0].Share = 99
	c.Products[0].Inputs[0] = "changed"
	if s.Timesteps == 1 || s.Outputs[0].Share == 99 || s.Products[0].Inputs[0] == "changed" {
		t.Fatal("Clone aliases the original")
	}
}

func TestOutputLookup(t *testing.T) {
	s := Tillamook()
	o, ok := s.Output("1_salt.63")
	if !ok || o.Variable != VarSalinity || o.Day != 1 {
		t.Fatalf("Output lookup: %+v %v", o, ok)
	}
	if _, ok := s.Output("missing"); ok {
		t.Fatal("found missing output")
	}
}

func TestProductWorkPositiveAndScales(t *testing.T) {
	s := DataflowForecast()
	w := s.ProductWork()
	if w <= 0 {
		t.Fatalf("ProductWork = %v, want > 0", w)
	}
	if s.TotalWork() != s.SimWork()+s.ProductWork() {
		t.Fatal("TotalWork mismatch")
	}
	// Fewer products → less work.
	small := NewSpec("s", "r", 2880, 26000, 2)
	if small.ProductWork() >= w {
		t.Fatalf("2-product work %v >= 12-product work %v", small.ProductWork(), w)
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassIsolines:      "isolines",
		ClassTransects:     "transects",
		ClassCrossSections: "cross-sections",
		ClassAnimations:    "animations",
		ClassPlume:         "plume",
		ClassEstuaryPlots:  "estuary-plots",
	}
	for c, name := range want {
		if c.String() != name {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Fatal("unknown class string wrong")
	}
}

func TestReplicateProducts(t *testing.T) {
	s := DataflowForecast()
	r := ReplicateProducts(s, 3)
	if len(r.Products) != 3*len(s.Products) {
		t.Fatalf("got %d products, want %d", len(r.Products), 3*len(s.Products))
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dependencies remap within each replica.
	for _, p := range r.Products {
		for _, d := range p.DependsOn {
			if p.Name[len(p.Name)-2:] != d[len(d)-2:] {
				t.Fatalf("product %s depends on %s across replicas", p.Name, d)
			}
		}
	}
	// Work and bytes scale with the replica count.
	if math.Abs(r.ProductWork()-3*s.ProductWork()) > 1e-6*s.ProductWork() {
		t.Fatalf("ProductWork = %v, want %v", r.ProductWork(), 3*s.ProductWork())
	}
	// n ≤ 1 returns a plain clone.
	if c := ReplicateProducts(s, 1); len(c.Products) != len(s.Products) {
		t.Fatal("n=1 should clone")
	}
	// The original is untouched.
	if len(s.Products) != 12 {
		t.Fatalf("original mutated: %d products", len(s.Products))
	}
}

func TestClassProfilesAllPositive(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		cpu, ratio := c.Profile()
		if cpu <= 0 || ratio <= 0 {
			t.Fatalf("class %s has non-positive profile (%v, %v)", c, cpu, ratio)
		}
	}
}

func TestNamedForecasts(t *testing.T) {
	for _, s := range []*Spec{Tillamook(), Dev(), DataflowForecast()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// Dataflow forecast: isolated sim time ≈10,500 s (calibration for Figs 6/7).
	df := DataflowForecast()
	if w := df.SimWork(); w < 9000 || w < 1 || w > 12000 {
		t.Fatalf("DataflowForecast SimWork = %v, want ≈10500", w)
	}
}
