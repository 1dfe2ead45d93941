package monitor

import (
	"repro/internal/statsdb"
)

// AlertsTableName is the conventional name of the alert-history table.
const AlertsTableName = "alerts"

// alertRow is one alerts row, joinable with the runs and spans tables
// on forecast (and day), so lateness can be probed with the same SQL as
// run statistics — e.g. walltimes of the runs that tripped the
// regression rule.
type alertRow struct {
	ID         int64   `db:"id"`
	Rule       string  `db:"rule"`
	Severity   string  `db:"severity"`
	State      string  `db:"state"`
	Forecast   string  `db:"forecast"`
	Day        int     `db:"day"`
	Node       string  `db:"node"`
	Predicted  bool    `db:"predicted"`
	Value      float64 `db:"value"`
	Threshold  float64 `db:"threshold"`
	FiredAt    float64 `db:"fired_at"`
	ResolvedAt float64 `db:"resolved_at"`
	Message    string  `db:"message"`
}

var alertsTable = statsdb.NewTypedTable[alertRow](AlertsTableName, "rule", "forecast")

// LoadAlerts creates (or extends) the alerts table from an alert
// history (Monitor.Alerts), indexing rule and forecast. resolved_at is
// zero for alerts still firing when the history was taken.
func LoadAlerts(db *statsdb.DB, alerts []Alert) (*statsdb.Table, error) {
	rows := make([]alertRow, len(alerts))
	for i, a := range alerts {
		rows[i] = alertRow{
			ID: a.ID, Rule: a.Rule, Severity: a.Severity.String(), State: a.State,
			Forecast: a.Forecast, Day: a.Day, Node: a.Node, Predicted: a.Predicted,
			Value: a.Value, Threshold: a.Threshold,
			FiredAt: a.FiredAt, ResolvedAt: a.ResolvedAt, Message: a.Message,
		}
	}
	return alertsTable.Insert(db, rows...)
}
