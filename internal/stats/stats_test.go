package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitLinearExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	f, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 2, 1e-9) || !almost(f.Intercept, 3, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
	if !almost(f.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
	if !almost(f.Predict(10), 23, 1e-9) {
		t.Fatalf("Predict(10) = %v", f.Predict(10))
	}
}

func TestFitLinearWalltimeVsTimesteps(t *testing.T) {
	// The paper's observation: walltime linear in timesteps
	// (Tillamook: 5760 → ≈40,000 s, 11520 → ≈80,000 s).
	x := []float64{5760, 5760, 5760, 11520, 11520}
	y := []float64{40100, 39900, 40000, 80050, 79950}
	f, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %v, want ≈1 (linear relationship)", f.R2)
	}
	if got := f.Predict(8640); got < 58000 || got > 62000 {
		t.Fatalf("Predict(8640) = %v, want ≈60000", got)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	f, err := FitLinear([]float64{1, 2, 3}, []float64{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Slope, 0, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestMeanMedianStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5, 1e-12) {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if !almost(Median(xs), 4.5, 1e-12) {
		t.Fatalf("Median = %v", Median(xs))
	}
	if !almost(Median([]float64{3, 1, 2}), 2, 1e-12) {
		t.Fatal("odd-length median wrong")
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if !almost(MAD(xs), 1, 1e-12) {
		t.Fatalf("MAD = %v", MAD(xs))
	}
	if !math.IsNaN(MAD(nil)) {
		t.Fatal("MAD(nil) should be NaN")
	}
}

func TestOutliersFlagSpikes(t *testing.T) {
	// A walltime series with two contention spikes (Figure 9 style).
	xs := []float64{52000, 52100, 51900, 52050, 64000, 52000, 51950, 57500, 52020}
	got := Outliers(xs, 5)
	if len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Fatalf("Outliers = %v, want [4 7]", got)
	}
}

func TestOutliersDegenerateSeries(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 9}
	got := Outliers(xs, 3)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("Outliers = %v, want [4]", got)
	}
	if Outliers(nil, 3) != nil {
		t.Fatal("Outliers(nil) should be nil")
	}
}

func TestLevelShiftsFindCodeChanges(t *testing.T) {
	// Step changes at indexes 10 (−5000) and 20 (+26000), as in Figure 9.
	var xs []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, 32000)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 27000)
	}
	for i := 0; i < 10; i++ {
		xs = append(xs, 53000)
	}
	got := LevelShifts(xs, 5, 3000)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("LevelShifts = %v, want [10 20]", got)
	}
}

func TestLevelShiftsIgnoresNoise(t *testing.T) {
	var xs []float64
	for i := 0; i < 30; i++ {
		xs = append(xs, 32000+float64(i%3)*50)
	}
	if got := LevelShifts(xs, 5, 3000); len(got) != 0 {
		t.Fatalf("LevelShifts = %v, want none", got)
	}
	if got := LevelShifts(xs[:4], 5, 1); got != nil {
		t.Fatal("short series should yield nil")
	}
}

// Property: the least-squares fit recovers slope and intercept from
// noise-free data and R2 is within [0, 1] with noisy data.
func TestPropertyFitLinearRecovery(t *testing.T) {
	f := func(aRaw, bRaw int8, noise []int8) bool {
		a, b := float64(aRaw), float64(bRaw)
		n := len(noise)
		if n < 3 {
			return true
		}
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
			y[i] = a + b*x[i]
		}
		fit, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		if !almost(fit.Slope, b, 1e-6) || !almost(fit.Intercept, a, 1e-6) {
			return false
		}
		// Add noise; R2 must stay in [0, 1].
		for i := range y {
			y[i] += float64(noise[i]) * 0.1
		}
		fit2, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		return fit2.R2 >= -1e-9 && fit2.R2 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
