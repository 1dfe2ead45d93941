package harvest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/statsdb"
)

// ForecastProvenance aggregates the runs of one forecast under a code
// version.
type ForecastProvenance struct {
	Forecast  string   `json:"forecast"`
	Runs      int      `json:"runs"`
	FirstYear int      `json:"first_year"`
	FirstDay  int      `json:"first_day"`
	LastYear  int      `json:"last_year"`
	LastDay   int      `json:"last_day"`
	Nodes     []string `json:"nodes"`
	// Sources sample the run-log files behind the rows (capped so the
	// report stays readable for year-long campaigns).
	Sources []string `json:"sources,omitempty"`
}

// maxSourceSample caps Sources per forecast.
const maxSourceSample = 3

// Provenance answers the paper's manageability query — "find all the
// forecasts that use a particular version of the code" — from a harvested
// database, with enough context (days, nodes, source files) to act on the
// answer: re-run them, exclude them from skill statistics, or page whoever
// deployed the version.
type Provenance struct {
	CodeVersion string               `json:"code_version"`
	TotalRuns   int                  `json:"total_runs"`
	Forecasts   []ForecastProvenance `json:"forecasts"`
	// Available lists the code versions present in the database; filled
	// when the queried version matches nothing, so the caller can see what
	// to ask for instead.
	Available []string `json:"available_versions,omitempty"`
}

// QueryProvenance reports every forecast whose runs used codeVersion.
// The lookup is an index probe on the runs table's code_version index.
func QueryProvenance(db *statsdb.DB, codeVersion string) (*Provenance, error) {
	if codeVersion == "" {
		return nil, fmt.Errorf("provenance: empty code version")
	}
	t := db.Table(statsdb.RunsTableName)
	if t == nil {
		return nil, fmt.Errorf("provenance: no %s table — harvest first", statsdb.RunsTableName)
	}
	res, err := statsdb.Select(t, "forecast", "year", "day", "node", statsdb.ColSourcePath).
		Where(statsdb.Pred{Col: "code_version", Op: statsdb.OpEq, Val: statsdb.StringVal(codeVersion)}).
		Run()
	if err != nil {
		return nil, err
	}

	p := &Provenance{CodeVersion: codeVersion}
	if len(res.Rows) == 0 {
		versions, err := statsdb.Select(t, "code_version").GroupBy("code_version").
			OrderBy(statsdb.OrderKey{Col: "code_version"}).Run()
		if err != nil {
			return nil, err
		}
		for _, row := range versions.Rows {
			p.Available = append(p.Available, row[0].Str())
		}
		return p, nil
	}

	fi, yi, di, ni := res.Column("forecast"), res.Column("year"), res.Column("day"), res.Column("node")
	si := res.Column(statsdb.ColSourcePath)
	byForecast := make(map[string]*ForecastProvenance)
	nodes := make(map[string]map[string]bool)
	for _, row := range res.Rows {
		name := row[fi].Str()
		year, day := int(row[yi].Int()), int(row[di].Int())
		fp := byForecast[name]
		if fp == nil {
			fp = &ForecastProvenance{
				Forecast:  name,
				FirstYear: year, FirstDay: day,
				LastYear: year, LastDay: day,
			}
			byForecast[name] = fp
			nodes[name] = make(map[string]bool)
		}
		fp.Runs++
		if year < fp.FirstYear || (year == fp.FirstYear && day < fp.FirstDay) {
			fp.FirstYear, fp.FirstDay = year, day
		}
		if year > fp.LastYear || (year == fp.LastYear && day > fp.LastDay) {
			fp.LastYear, fp.LastDay = year, day
		}
		nodes[name][row[ni].Str()] = true
		if len(fp.Sources) < maxSourceSample {
			if src := row[si].Str(); src != "" {
				fp.Sources = append(fp.Sources, src)
			}
		}
		p.TotalRuns++
	}
	for name, fp := range byForecast {
		for n := range nodes[name] {
			fp.Nodes = append(fp.Nodes, n)
		}
		sort.Strings(fp.Nodes)
		p.Forecasts = append(p.Forecasts, *fp)
	}
	sort.Slice(p.Forecasts, func(i, j int) bool { return p.Forecasts[i].Forecast < p.Forecasts[j].Forecast })
	return p, nil
}

// String renders the provenance report for the foreman CLI.
func (p *Provenance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "provenance: code version %s\n", p.CodeVersion)
	if len(p.Forecasts) == 0 {
		b.WriteString("  no runs found\n")
		if len(p.Available) > 0 {
			fmt.Fprintf(&b, "  available versions: %s\n", strings.Join(p.Available, ", "))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "  %d run(s) across %d forecast(s)\n", p.TotalRuns, len(p.Forecasts))
	for _, fp := range p.Forecasts {
		fmt.Fprintf(&b, "  %-28s %4d runs  %d-%03d .. %d-%03d  nodes %s\n",
			fp.Forecast, fp.Runs, fp.FirstYear, fp.FirstDay, fp.LastYear, fp.LastDay,
			strings.Join(fp.Nodes, ","))
		for _, src := range fp.Sources {
			fmt.Fprintf(&b, "      %s\n", src)
		}
	}
	return b.String()
}
