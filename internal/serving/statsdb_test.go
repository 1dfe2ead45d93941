package serving

import (
	"testing"

	"repro/internal/statsdb"
)

func TestStatsRoundTrip(t *testing.T) {
	db := statsdb.NewDB()
	st := Stats{
		Requests: 1000, Hits: 700, Misses: 300, Coalesced: 150, Renders: 12,
		Shed: 40, ServedStale: 9,
		StalenessP50: 1800, StalenessP99: 14400, StalenessMax: 20000,
		MeanStaleness: 2500, MeanWait: 120,
		Products: []ProductStats{
			{Product: "x/plot", Forecast: "x", Requests: 600, Hits: 500, Misses: 100,
				Renders: 7, Shed: 30, ServedStale: 9, DemandRate: 321.5, Cycle: 2, Hot: true},
			{Product: "x/anim", Forecast: "x", Requests: 400, Hits: 200, Misses: 200,
				Renders: 5, Shed: 10, Cycle: 1},
		},
	}
	if err := LoadReport(db, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requests != st.Requests || got.Hits != st.Hits || got.Coalesced != st.Coalesced ||
		got.Renders != st.Renders || got.Shed != st.Shed || got.ServedStale != st.ServedStale {
		t.Fatalf("edge counters round-trip mismatch: %+v", got)
	}
	if got.StalenessP99 != st.StalenessP99 || got.StalenessP50 != st.StalenessP50 ||
		got.MeanWait != st.MeanWait {
		t.Fatalf("staleness round-trip mismatch: %+v", got)
	}
	if got.HitRate != 0.7 {
		t.Fatalf("hit rate recomputed = %v, want 0.7", got.HitRate)
	}
	if len(got.Products) != 2 {
		t.Fatalf("products = %d, want 2", len(got.Products))
	}
	for i, p := range got.Products {
		w := st.Products[i]
		if p != w {
			t.Fatalf("product %d round-trip: got %+v want %+v", i, p, w)
		}
	}
}

func TestReadReportEmptyDB(t *testing.T) {
	st, err := ReadReport(statsdb.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 0 || len(st.Products) != 0 {
		t.Fatalf("empty db yielded %+v", st)
	}
}

func TestRenderTables(t *testing.T) {
	st := Stats{
		Requests: 10, Hits: 5, HitRate: 0.5, Shed: 1,
		ShedByTier: map[string]int64{"stale+cold": 1},
		Products: []ProductStats{
			{Product: "x/plot", Forecast: "x", Requests: 10, Hits: 5, Hot: true},
		},
	}
	if out := SummaryTable(st); out == "" {
		t.Fatal("empty summary")
	}
	if out := ProductTable(st, 5); out == "" {
		t.Fatal("empty product table")
	}
	if out := ProductTable(Stats{}, 5); out == "" {
		t.Fatal("empty-catalog table should still render a placeholder")
	}
	if out := DemandTable(map[string]int{"x": 1}, map[string]int64{"x": 10}); out == "" {
		t.Fatal("empty demand table")
	}
}
