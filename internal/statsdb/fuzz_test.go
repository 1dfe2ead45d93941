package statsdb

import "testing"

// FuzzQuery runs arbitrary SQL against a small runs + nodes database
// (foreman -sql takes it from the command line). Lexing, parsing, JOIN
// resolution, EXPLAIN and execution may reject the text but must never
// panic.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM runs",
		"SELECT forecast, day FROM runs WHERE code_version = 'v1'",
		"SELECT forecast FROM runs WHERE walltime >= 40100 AND day <> 3",
		"SELECT forecast, COUNT(*), AVG(walltime) FROM runs GROUP BY forecast ORDER BY forecast",
		"SELECT MAX(walltime), MIN(day) FROM runs",
		"SELECT forecast, AVG(walltime) FROM runs GROUP BY forecast ORDER BY AVG(walltime) DESC LIMIT 1",
		"SELECT walltime FROM runs ORDER BY walltime ASC",
		"SELECT * FROM runs LIMIT 2",
		"SELECT region FROM runs WHERE region = 'it''s'",
		"SELECT day FROM runs WHERE walltime <= -2.5",
		"select forecast from runs where day = 1 order by forecast desc",
		"SELECT forecast, AVG(walltime), AVG(speed) FROM runs JOIN nodes ON node = name GROUP BY forecast ORDER BY forecast",
		"SELECT runs.forecast, nodes.speed FROM runs JOIN nodes ON runs.node = nodes.name WHERE nodes.speed > 1.5",
		"SELECT nodes.name FROM runs JOIN nodes ON node = name GROUP BY nodes.name",
		"SELECT * FROM runs JOIN nodes ON node = walltime",
		"EXPLAIN SELECT forecast FROM runs WHERE code_version = 'v1' LIMIT 3",
		"explain select * from runs",
		"SELECT * FROM runs WHERE s = 'unterminated",
		"SELECT COUNT( FROM runs",
		"SELECT * FROM runs LIMIT -1",
		"SELECT day FROM runs WHERE day = 9007199254740993",
		"SELECT day FROM runs WHERE day > 9007199254740992",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		_, _ = joinFixture(t).Query(sql)
	})
}
