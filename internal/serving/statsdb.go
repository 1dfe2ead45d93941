// Schema v7: the serving edge's persisted counters. serving_stats holds
// one row per product plus one edge-total row (product = "__edge__")
// carrying the staleness quantiles and queueing aggregates. `foreman
// -serving`, /api/serving, and the campaign-end summary all render a
// Stats read back from these rows, so the surfaces cannot disagree.

package serving

import (
	"repro/internal/statsdb"
)

// TableName is the serving edge's statsdb table.
const TableName = "serving_stats"

// EdgeRow is the product key of the edge-total row.
const EdgeRow = "__edge__"

// statsRow is one serving_stats row. Product rows and the edge-total
// row share the table: the demand columns (demand_rate, cycle, hot) are
// meaningful only on product rows, coalesced and the quantile columns
// only on the edge row.
type statsRow struct {
	Product       string  `db:"product"`
	Forecast      string  `db:"forecast"`
	Requests      int64   `db:"requests"`
	Hits          int64   `db:"hits"`
	Misses        int64   `db:"misses"`
	Coalesced     int64   `db:"coalesced"`
	Renders       int64   `db:"renders"`
	Shed          int64   `db:"shed"`
	ServedStale   int64   `db:"served_stale"`
	DemandRate    float64 `db:"demand_rate"`
	Cycle         int     `db:"cycle"`
	Hot           bool    `db:"hot"`
	StalenessP50  float64 `db:"staleness_p50"`
	StalenessP99  float64 `db:"staleness_p99"`
	StalenessMax  float64 `db:"staleness_max"`
	StalenessMean float64 `db:"staleness_mean"`
	MeanWait      float64 `db:"mean_wait"`
}

var statsTable = statsdb.NewTypedTable[statsRow](TableName, "product")

// Migrations returns the serving layer's schema migrations: v7 creates
// serving_stats with its product index. Combine with the earlier layers
// (harvest v1–v2, usage v3, forensics v4, spc v5, engineprof v6).
func Migrations() []statsdb.Migration {
	return []statsdb.Migration{statsdb.TableMigration(7, "serving-tables", statsTable)}
}

// LoadReport persists one edge snapshot (created via the v7 migration
// when missing). One snapshot covers a whole campaign; load each once.
func LoadReport(db *statsdb.DB, st Stats) error {
	if _, err := statsdb.Migrate(db, Migrations()); err != nil {
		return err
	}
	rows := make([]statsRow, 0, 1+len(st.Products))
	rows = append(rows, statsRow{
		Product:  EdgeRow,
		Requests: st.Requests, Hits: st.Hits, Misses: st.Misses,
		Coalesced: st.Coalesced, Renders: st.Renders, Shed: st.Shed,
		ServedStale:  st.ServedStale,
		StalenessP50: st.StalenessP50, StalenessP99: st.StalenessP99,
		StalenessMax: st.StalenessMax, StalenessMean: st.MeanStaleness,
		MeanWait: st.MeanWait,
	})
	for _, p := range st.Products {
		rows = append(rows, statsRow{
			Product: p.Product, Forecast: p.Forecast,
			Requests: p.Requests, Hits: p.Hits, Misses: p.Misses,
			Renders: p.Renders, Shed: p.Shed, ServedStale: p.ServedStale,
			DemandRate: p.DemandRate, Cycle: p.Cycle, Hot: p.Hot,
		})
	}
	_, err := statsTable.Insert(db, rows...)
	return err
}

// ReadReport reconstructs a Stats from the persisted rows. Derived rates
// are recomputed from the stored counters. Returns an empty Stats when
// the table is absent.
func ReadReport(db *statsdb.DB) (Stats, error) {
	var st Stats
	rows, err := statsTable.Read(db)
	if err != nil {
		return st, err
	}
	for _, r := range rows {
		if r.Product == EdgeRow {
			st.Requests, st.Hits, st.Misses = r.Requests, r.Hits, r.Misses
			st.Coalesced, st.Renders, st.Shed = r.Coalesced, r.Renders, r.Shed
			st.ServedStale = r.ServedStale
			st.StalenessP50, st.StalenessP99 = r.StalenessP50, r.StalenessP99
			st.StalenessMax, st.MeanStaleness = r.StalenessMax, r.StalenessMean
			st.MeanWait = r.MeanWait
			continue
		}
		st.Products = append(st.Products, ProductStats{
			Product: r.Product, Forecast: r.Forecast,
			Requests: r.Requests, Hits: r.Hits, Misses: r.Misses,
			Renders: r.Renders, Shed: r.Shed, ServedStale: r.ServedStale,
			DemandRate: r.DemandRate, Cycle: r.Cycle, Hot: r.Hot,
		})
	}
	if st.Requests > 0 {
		st.HitRate = float64(st.Hits) / float64(st.Requests)
		st.ShedFraction = float64(st.Shed) / float64(st.Requests)
	}
	return st, nil
}
