package experiments

import "testing"

func TestDatabaseFreshness(t *testing.T) {
	r := DatabaseFreshness()
	daily := r.Comparisons[0].Measured
	hourly := r.Comparisons[1].Measured
	live := r.Comparisons[2].Measured
	if live != 0 {
		t.Errorf("live staleness = %v, want 0", live)
	}
	if !(daily > hourly && hourly > live) {
		t.Errorf("staleness ordering wrong: daily %v, hourly %v, live %v", daily, hourly, live)
	}
	// Daily crawl staleness should be within the interval, of half-interval order.
	if daily < 10000 || daily > 86400 {
		t.Errorf("daily staleness = %v, implausible", daily)
	}
}

func TestPartitionedProductsReport(t *testing.T) {
	r := PartitionedProducts()
	today := r.Comparisons[0]
	if today.RelError() > 0.10 {
		t.Errorf("today's load: Arch3 %v vs Arch2 %v — should be close (little benefit)",
			today.Measured, today.Paper)
	}
	bytes := r.Comparisons[1]
	if bytes.Measured < 3*bytes.Paper {
		t.Errorf("Arch3 bytes %v not ≫ Arch2 bytes %v", bytes.Measured, bytes.Paper)
	}
	heavy := r.Comparisons[2]
	if heavy.Measured >= heavy.Paper {
		t.Errorf("heavy load: partitioned %v not faster than single server %v",
			heavy.Measured, heavy.Paper)
	}
}

func TestOnDemandPoliciesReport(t *testing.T) {
	r := OnDemandPolicies()
	greedyLate := r.Comparisons[0].Measured
	awareLate := r.Comparisons[1].Measured
	if greedyLate == 0 {
		t.Error("greedy policy should make made-to-stock runs late under this load")
	}
	if awareLate != 0 {
		t.Errorf("deadline-aware policy made %v stock runs late", awareLate)
	}
	greedyLatency := r.Comparisons[3].Measured
	awareLatency := r.Comparisons[4].Measured
	if greedyLatency >= awareLatency {
		t.Errorf("greedy latency %v should beat deadline-aware %v (its only advantage)",
			greedyLatency, awareLatency)
	}
}

func TestIncrementalLeadReport(t *testing.T) {
	r := IncrementalLead()
	worst := r.Comparisons[0]
	if worst.Measured >= worst.Paper {
		t.Errorf("Arch1 worst-case lead %v should be below Arch2's %v", worst.Measured, worst.Paper)
	}
	early := r.Comparisons[1]
	if early.Measured >= early.Paper {
		t.Errorf("Arch1 early lead %v should be below Arch2's %v", early.Measured, early.Paper)
	}
	// The captain still gets positive lead from the day-1 data either way.
	if early.Paper <= 0 {
		t.Errorf("Arch2 early lead %v should be positive", early.Paper)
	}
}

func TestExtensionsListAndByID(t *testing.T) {
	reports := Extensions()
	if len(reports) != 4 {
		t.Fatalf("Extensions() returned %d reports", len(reports))
	}
	for i, want := range []string{"x1", "x2", "x3", "x4"} {
		r, ok := ByID(want)
		if !ok || r.ID != want || reports[i].ID != want {
			t.Errorf("ByID(%s) = %v, %v; Extensions()[%d] = %v", want, r.ID, ok, i, reports[i].ID)
		}
	}
}
