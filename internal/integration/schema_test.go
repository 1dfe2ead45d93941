package integration

import (
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
// the observatories persist, and of the runs and spans tables: column
// names, types and order, and the indexed columns. The readers read by position and refuse a table laid
// out otherwise, so a change here changes what every reader expects.
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
	{"runs",
		"forecast STRING, region STRING, year INT, day INT, node STRING, code_version STRING, " +
			"code_factor FLOAT, mesh STRING, mesh_sides INT, timesteps INT, start FLOAT, end FLOAT, " +
			"walltime FLOAT, status STRING, products INT, harvested_at FLOAT, source_path STRING",
		"code_version, forecast, node"},
	{"spans",
		"id INT, parent INT, cat STRING, name STRING, track STRING, start FLOAT, end FLOAT, " +
			"duration FLOAT, forecast STRING, day INT, node STRING, interrupted BOOL",
		"cat, id, track"},
}

// TestObservatorySchemasGolden creates every observatory table the way
// the CLIs do, through its loader, each given nothing to load, and checks
// each against its golden layout.
func TestObservatorySchemasGolden(t *testing.T) {
	db := statsdb.NewDB()
	for name, load := range map[string]func() error{
		"usage samples": func() error { _, err := usage.LoadSamples(db, nil); return err },
		"usage drift":   func() error { _, err := usage.LoadDrift(db, nil); return err },
		"forensics":     func() error { return forensics.LoadReport(db, &forensics.Report{}) },
		"spc":           func() error { return spc.LoadReport(db, &spc.Report{}) },
		"engineprof":    func() error { return engineprof.LoadReport(db, &engineprof.Report{}) },
		"serving":       func() error { return serving.LoadReport(db, serving.Stats{}) },
		"alerts":        func() error { _, err := monitor.LoadAlerts(db, nil); return err },
		"nodes":         func() error { _, err := statsdb.LoadNodes(db, nil); return err },
		"runs":          func() error { _, err := statsdb.LoadRuns(db, nil); return err },
		"spans":         func() error { _, err := statsdb.LoadSpans(db, nil); return err },
	} {
		if err := load(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
	if got, want := len(db.TableNames()), len(observatorySchemas); got != want {
		t.Errorf("the loaders made %d tables %v, want the %d golden ones", got, db.TableNames(), want)
	}
}
