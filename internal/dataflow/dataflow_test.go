package dataflow

import (
	"math"
	"testing"
)

func TestArchitecture2BeatsArchitecture1(t *testing.T) {
	// The paper's headline §4.2 result: ≈18,000 s end-to-end at a single
	// node versus ≈11,000 s with products generated at the server.
	r1 := Run(Architecture1, Params{})
	r2 := Run(Architecture2, Params{})
	if r2.EndToEnd >= r1.EndToEnd {
		t.Fatalf("Architecture 2 (%v s) not faster than Architecture 1 (%v s)", r2.EndToEnd, r1.EndToEnd)
	}
	// Magnitudes: Arch 1 in [15000, 21000], Arch 2 in [9500, 13000].
	if r1.EndToEnd < 15000 || r1.EndToEnd > 21000 {
		t.Errorf("Architecture 1 end-to-end = %v, want ≈18000", r1.EndToEnd)
	}
	if r2.EndToEnd < 9500 || r2.EndToEnd > 13000 {
		t.Errorf("Architecture 2 end-to-end = %v, want ≈11000", r2.EndToEnd)
	}
	// Speedup factor roughly 18/11 ≈ 1.6.
	ratio := r1.EndToEnd / r2.EndToEnd
	if ratio < 1.3 || ratio > 2.1 {
		t.Errorf("speedup = %v, want ≈1.6", ratio)
	}
}

func TestArchitecture1ContentionStretchesSim(t *testing.T) {
	r1 := Run(Architecture1, Params{})
	r2 := Run(Architecture2, Params{})
	// Products steal cycles from the simulation in Architecture 1.
	if r1.SimWalltime <= r2.SimWalltime {
		t.Fatalf("Arch1 sim (%v) not slower than Arch2 sim (%v)", r1.SimWalltime, r2.SimWalltime)
	}
}

func TestArchitecture2SavesBandwidth(t *testing.T) {
	// §4.2: data products account for as much as 20% of run data, so
	// Architecture 2 moves correspondingly fewer bytes.
	r1 := Run(Architecture1, Params{})
	r2 := Run(Architecture2, Params{})
	if r2.BytesOverLink >= r1.BytesOverLink {
		t.Fatalf("Arch2 moved %v bytes, Arch1 %v", r2.BytesOverLink, r1.BytesOverLink)
	}
	saving := r2.BandwidthSaving()
	if saving < 0.10 || saving > 0.30 {
		t.Errorf("bandwidth saving = %v, want ≈0.20", saving)
	}
	if r1.BandwidthSaving() > 0.02 {
		t.Errorf("Arch1 bandwidth saving = %v, want ≈0", r1.BandwidthSaving())
	}
}

func TestArchitecture1FinalOutputsAndProductsArriveTogether(t *testing.T) {
	// Paper: "in Figure 6 the final model outputs and data products
	// arrive at the server at around the same time".
	r1 := Run(Architecture1, Params{})
	tOut := seriesEnd(t, r1, "2_salt.63")
	tProd := seriesEnd(t, r1, "isosal_far_surface")
	if math.Abs(tOut-tProd) > 0.10*r1.EndToEnd {
		t.Errorf("Arch1 outputs done at %v, products at %v; want close", tOut, tProd)
	}
}

func TestArchitecture2FinalProductsSlightlyLater(t *testing.T) {
	// Paper: "in Figure 7 the final data products appear slightly later"
	// than the model outputs.
	r2 := Run(Architecture2, Params{})
	tOut := seriesEnd(t, r2, "2_salt.63")
	tProd := seriesEnd(t, r2, "isosal_far_surface")
	if tProd <= tOut {
		t.Errorf("Arch2 products done at %v, not after outputs at %v", tProd, tOut)
	}
	// "Slightly": within ~20% of the total.
	if tProd-tOut > 0.25*r2.EndToEnd {
		t.Errorf("Arch2 product lag %v too large for end-to-end %v", tProd-tOut, r2.EndToEnd)
	}
}

// timeToFraction returns the first sampled time at which the series
// reaches at least the given fraction, or NaN if it never does.
func timeToFraction(s Series, frac float64) float64 {
	for i, f := range s.Fraction {
		if f >= frac {
			return s.Times[i]
		}
	}
	return math.NaN()
}

func seriesEnd(t *testing.T, r Result, name string) float64 {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			v := timeToFraction(s, 0.999)
			if math.IsNaN(v) {
				t.Fatalf("series %s never completed", name)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", name)
	return 0
}

func TestSeriesAreMonotonicAndNormalized(t *testing.T) {
	for _, arch := range []Architecture{Architecture1, Architecture2} {
		r := Run(arch, Params{})
		if len(r.Series) != len(watchedSeries) {
			t.Fatalf("%v: %d series, want %d", arch, len(r.Series), len(watchedSeries))
		}
		for _, s := range r.Series {
			if len(s.Times) == 0 {
				t.Fatalf("%v/%s: empty series", arch, s.Name)
			}
			for i := 1; i < len(s.Fraction); i++ {
				if s.Fraction[i] < s.Fraction[i-1]-1e-9 {
					t.Fatalf("%v/%s: fraction decreased at %d", arch, s.Name, i)
				}
				if s.Times[i] < s.Times[i-1] {
					t.Fatalf("%v/%s: time decreased at %d", arch, s.Name, i)
				}
			}
			last := s.Fraction[len(s.Fraction)-1]
			if math.Abs(last-1) > 1e-9 {
				t.Fatalf("%v/%s: final fraction = %v, want 1", arch, s.Name, last)
			}
		}
	}
}

func TestFasterLinkShrinksArch1Gap(t *testing.T) {
	// With a much faster link, Architecture 1's end-to-end approaches its
	// run walltime (transfer lag vanishes); the architecture gap remains
	// because it is CPU contention, not bandwidth.
	fast := Run(Architecture1, Params{Bandwidth: 1e9, RsyncInterval: 30})
	if fast.EndToEnd-fast.RunWalltime > 120 {
		t.Errorf("fast-link Arch1 lag = %v, want small", fast.EndToEnd-fast.RunWalltime)
	}
}

func TestTwoCPUClientRemovesMostContention(t *testing.T) {
	// Ablation: with two client CPUs and one product worker, the
	// simulation and products rarely exceed the CPU count, so
	// Architecture 1's penalty mostly disappears.
	one := Run(Architecture1, Params{})
	two := Run(Architecture1, Params{ClientCPUs: 2})
	if two.SimWalltime >= one.SimWalltime {
		t.Fatalf("2-CPU sim walltime %v not below 1-CPU %v", two.SimWalltime, one.SimWalltime)
	}
	// With two CPUs the residual penalty is just the co-location
	// interference factor, not CPU contention.
	if two.SimWalltime > 1.05*1.25*10700 {
		t.Errorf("2-CPU Arch1 sim walltime = %v, want ≈ slowdown × isolated ≈13350", two.SimWalltime)
	}
}

func TestTimeToFraction(t *testing.T) {
	s := Series{Times: []float64{0, 10, 20}, Fraction: []float64{0, 0.5, 1}}
	if got := timeToFraction(s, 0.4); got != 10 {
		t.Fatalf("timeToFraction(0.4) = %v, want 10", got)
	}
	if got := timeToFraction(s, 1.0); got != 20 {
		t.Fatalf("timeToFraction(1.0) = %v, want 20", got)
	}
	if !math.IsNaN(timeToFraction(Series{Times: []float64{0}, Fraction: []float64{0.2}}, 0.5)) {
		t.Fatal("timeToFraction should be NaN when never reached")
	}
}

func TestArchitectureString(t *testing.T) {
	if Architecture1.String() == "" || Architecture2.String() == "" || Architecture(9).String() == "" {
		t.Fatal("empty architecture name")
	}
}

func TestUnknownArchitecturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown architecture did not panic")
		}
	}()
	Run(Architecture(7), Params{})
}
