package stats

import (
	"math"
	"testing"
)

// The estimators sit under the planner and the SPC observatory, both of
// which feed them whatever history exists — including none, one sample,
// or a flat line. These tests pin the degenerate-input contracts: scalar
// summaries answer NaN only where documented, and slice-returning
// analyses stay empty (never NaN-bearing).

func TestZeroVarianceBaseline(t *testing.T) {
	flat := []float64{40000, 40000, 40000, 40000}
	if mad := MAD(flat); mad != 0 {
		t.Fatalf("MAD(flat) = %v, want 0", mad)
	}
	// Zero-MAD outlier detection flags exact departures, not everything.
	if got := Outliers([]float64{5, 5, 5, 6, 5}, 3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Outliers(near-flat) = %v, want [3]", got)
	}
}

func TestSingleSample(t *testing.T) {
	one := []float64{42}
	if m := Mean(one); m != 42 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Median(one); m != 42 {
		t.Fatalf("Median = %v", m)
	}
	if mad := MAD(one); mad != 0 {
		t.Fatalf("MAD = %v, want 0", mad)
	}
	if got := Outliers(one, 3); len(got) != 0 {
		t.Fatalf("Outliers = %v, want none", got)
	}
	if got := LevelShifts(one, 3, 1); got != nil {
		t.Fatalf("LevelShifts = %v, want nil", got)
	}
}

func TestEmptyInputNaNFree(t *testing.T) {
	// Scalar summaries document NaN for empty input...
	for name, got := range map[string]float64{
		"Mean":   Mean(nil),
		"Median": Median(nil),
		"MAD":    MAD(nil),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
	// ...but every slice-returning analysis must come back empty, with no
	// NaN smuggled into an output element and no panic.
	if got := Outliers(nil, 3); got != nil {
		t.Errorf("Outliers(nil) = %v, want nil", got)
	}
	if got := LevelShifts(nil, 5, 1); got != nil {
		t.Errorf("LevelShifts(nil) = %v, want nil", got)
	}
	if _, err := FitLinear(nil, nil); err == nil {
		t.Error("FitLinear(nil, nil) accepted")
	}
}
