package integration

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engineprof"
	"repro/internal/forensics"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/spc"
	"repro/internal/statsdb"
	"repro/internal/usage"
)

// observatorySchemas is the golden layout of every fixed-schema table
// the observatories persist: column names, types and order, and the
// indexed columns. Stored databases and positional readers depend on
// it, so a change here is a schema change and needs a migration.
var observatorySchemas = []struct {
	table, columns, indexes string
}{
	{"node_usage",
		"node STRING, start FLOAT, end FLOAT, utilization FLOAT, mean_share FLOAT, mean_active FLOAT, " +
			"peak_active INT, contention_secs FLOAT, idle_secs FLOAT, down_secs FLOAT",
		"node"},
	{"drift",
		"forecast STRING, day INT, planned_node STRING, actual_node STRING, moved BOOL, " +
			"predicted_start FLOAT, predicted_end FLOAT, actual_start FLOAT, actual_end FLOAT, " +
			"end_delta FLOAT, rel_error FLOAT, mean_share FLOAT",
		"forecast"},
	{"lateness_blame",
		"forecast STRING, day INT, node STRING, start FLOAT, end FLOAT, planned BOOL, " +
			"planned_start FLOAT, planned_end FLOAT, deadline FLOAT, lateness FLOAT, deadline_miss FLOAT, " +
			"queue_wait FLOAT, contention FLOAT, failure FLOAT, upstream_wait FLOAT, estimate_error FLOAT, " +
			"mean_share FLOAT, dominant STRING, interrupted BOOL",
		"day, forecast"},
	{"critical_paths",
		"forecast STRING, day INT, seq INT, kind STRING, name STRING, node STRING, " +
			"start FLOAT, end FLOAT, duration FLOAT",
		"forecast"},
	{"control_points",
		"kind STRING, subject STRING, seq INT, day INT, t FLOAT, value FLOAT, center FLOAT, sigma FLOAT, " +
			"ucl FLOAT, lcl FLOAT, z FLOAT, ewma FLOAT, ewma_upper FLOAT, ewma_lower FLOAT, " +
			"cusum_pos FLOAT, cusum_neg FLOAT, rules STRING, out BOOL, learning BOOL",
		"kind, subject"},
	{"changepoints",
		"kind STRING, subject STRING, seq INT, day INT, t FLOAT, cause STRING, before FLOAT, after FLOAT, " +
			"detected_seq INT, detected_day INT",
		"subject"},
	{"engine_profile",
		"label STRING, scheduled INT, fired INT, cancelled INT, wall_sampled INT, wall_ns INT, " +
			"wall_max_ns INT, wall_hist STRING, dwell_sum FLOAT, dwell_max FLOAT",
		"label"},
	{"engine_queue_depth",
		"seq INT, t FLOAT, depth INT",
		""},
	{"serving_stats",
		"product STRING, forecast STRING, requests INT, hits INT, misses INT, coalesced INT, renders INT, " +
			"shed INT, served_stale INT, demand_rate FLOAT, cycle INT, hot BOOL, staleness_p50 FLOAT, " +
			"staleness_p99 FLOAT, staleness_max FLOAT, staleness_mean FLOAT, mean_wait FLOAT",
		"product"},
	{"alerts",
		"id INT, rule STRING, severity STRING, state STRING, forecast STRING, day INT, node STRING, " +
			"predicted BOOL, value FLOAT, threshold FLOAT, fired_at FLOAT, resolved_at FLOAT, message STRING",
		"forecast, rule"},
	{"nodes",
		"name STRING, cpus INT, speed FLOAT",
		"name"},
}

// TestObservatorySchemasGolden creates every observatory table the way
// the CLIs do — the versioned v3–v7 migrations, then the alerts and
// nodes loaders — and checks each against its golden layout, plus the
// migration ledger the tables are recorded under.
func TestObservatorySchemasGolden(t *testing.T) {
	db := statsdb.NewDB()
	var migrations []statsdb.Migration
	for _, ms := range [][]statsdb.Migration{
		usage.Migrations(), forensics.Migrations(), spc.Migrations(),
		engineprof.Migrations(), serving.Migrations(),
	} {
		migrations = append(migrations, ms...)
	}
	if _, err := statsdb.Migrate(db, migrations); err != nil {
		t.Fatal(err)
	}
	if _, err := monitor.LoadAlerts(db, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := statsdb.LoadNodes(db, nil); err != nil {
		t.Fatal(err)
	}

	for _, g := range observatorySchemas {
		tbl := db.Table(g.table)
		if tbl == nil {
			t.Errorf("table %s missing", g.table)
			continue
		}
		var cols []string
		for _, c := range tbl.Schema() {
			cols = append(cols, c.Name+" "+c.Type.String())
		}
		if got := strings.Join(cols, ", "); got != g.columns {
			t.Errorf("%s columns:\n got %s\nwant %s", g.table, got, g.columns)
		}
		if got := strings.Join(tbl.IndexedColumns(), ", "); got != g.indexes {
			t.Errorf("%s indexes = %q, want %q", g.table, got, g.indexes)
		}
	}

	ledger, err := db.Query("SELECT version, name FROM schema_migrations ORDER BY version ASC")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range ledger.Rows {
		got = append(got, fmt.Sprintf("v%s %s", row[0], row[1]))
	}
	want := "v3 usage-tables, v4 forensics-tables, v5 spc-tables, v6 engine-observatory-tables, v7 serving-tables"
	if strings.Join(got, ", ") != want {
		t.Errorf("migrations = %v, want %s", got, want)
	}
	if v := statsdb.SchemaVersion(db); v != 7 {
		t.Errorf("SchemaVersion = %d, want 7", v)
	}
}
