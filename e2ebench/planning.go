package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/harvest"
	"repro/internal/logs"
	"repro/internal/statsdb"
	"repro/internal/vfs"
)

const (
	planningSetups = 2  // cold-harvest samples per iteration
	movesPerDay    = 40 // what-if Move calls per session day
	delaysPerDay   = 10 // what-if Delay calls per session day
	checkEvery     = 10 // every 10th Move is checked against a fresh Predict
	evalWindow     = 14 // days of history EvaluateEstimates replays
	planYear       = 2005
)

var planHeuristic = core.WorstFitDecreasing

// planningInputs are the generated inputs of one planning-session run.
type planningInputs struct {
	nodes     []core.NodeInfo
	specs     []*forecast.Spec
	histDays  int
	byDay     map[int][]*logs.RunRecord // completed records per day of year
	sessions  []sessionDay
	versions  []string
	nForecast int
}

// sessionDay is one day's generated operator requests.
type sessionDay struct {
	day     int
	queries []sqlCase
	moves   []whatIf // run index into the day's plan, target node
	delays  []whatIf // run index, delay in seconds
	failed  string
}

type whatIf struct {
	run int
	arg float64
}

// sqlCase is one SQL request and the same question answered by a direct
// scan of the generated records.
type sqlCase struct {
	sql    string
	match  func(r *logs.RunRecord) bool
	key    func(r *logs.RunRecord) string // group key, or the projected row when aggs is empty
	aggs   []string                       // "count", "avg", "sum", "max" over walltime
	groups int                            // leading result columns that form the key
}

// planningInputsFor derives the session from the seed: a 200-node plant,
// 2000 forecasts with seeded sizes, start offsets and priorities, 30 days
// of history with seeded run-time noise, code-version changes and node
// moves, and per session day the SQL literals, what-if targets and the
// failed node.
func planningInputsFor(o options) planningInputs {
	nNodes, nForecast, histDays, sessionDays := 200, 2000, 30, 10
	if o.size == "tiny" {
		nNodes, nForecast, histDays, sessionDays = 20, 100, 10, 3
	}
	rng := rand.New(rand.NewSource(o.seed))
	in := planningInputs{histDays: histDays, byDay: map[int][]*logs.RunRecord{}, nForecast: nForecast}
	for i := 0; i < nNodes; i++ {
		cpus := 2
		if i%5 == 4 {
			cpus = 4
		}
		in.nodes = append(in.nodes, core.NodeInfo{
			Name: fmt.Sprintf("node%03d", i), CPUs: cpus, Speed: 1 + 0.25*float64(i%3),
		})
	}
	in.versions = []string{"elcirc-5.01", "elcirc-5.02", "elcirc-5.10", "elcirc-5.11"}
	type history struct {
		node       []int     // node per day index
		code       []int     // code version per day index
		factor     []float64 // cost factor per version
		contention float64
	}
	hist := make([]history, nForecast)
	totalDays := histDays + sessionDays
	for f := 0; f < nForecast; f++ {
		ts := []int{2880, 4320, 5760}[rng.Intn(3)]
		sides := 12000 + rng.Intn(12001)
		s := forecast.NewSpec(fmt.Sprintf("fc-%04d", f), fmt.Sprintf("region-%02d", f%40), ts, sides, 2+rng.Intn(5))
		s.StartOffset = math.Round((1+5*rng.Float64())*3600*100) / 100
		s.Priority = 1 + rng.Intn(9)
		h := history{factor: make([]float64, len(in.versions)), contention: 1 + 0.3*rng.Float64()}
		for v := range h.factor {
			h.factor[v] = math.Round((0.9+0.2*rng.Float64())*1e4) / 1e4
		}
		node, code := f%nNodes, rng.Intn(2)
		moveDay, codeDay := -1, -1
		if rng.Float64() < 0.1 {
			moveDay = rng.Intn(totalDays)
		}
		if rng.Float64() < 0.3 {
			codeDay = rng.Intn(totalDays)
		}
		for d := 0; d < totalDays; d++ {
			if d == moveDay {
				node = rng.Intn(nNodes)
			}
			if d == codeDay {
				code = 2 + rng.Intn(2)
			}
			h.node = append(h.node, node)
			h.code = append(h.code, code)
		}
		// Today's spec carries the code version of the last history day.
		last := h.code[histDays-1]
		s.Code = forecast.CodeVersion{Name: in.versions[last], CostFactor: h.factor[last]}
		in.specs = append(in.specs, s)
		hist[f] = h
	}
	// Run records, rounded as run logs print them so a direct scan of the
	// generated records answers exactly what the database does.
	r2 := func(x float64) float64 { return math.Round(x*100) / 100 }
	for d := 0; d < totalDays; d++ {
		day := d + 1
		for f, s := range in.specs {
			h := hist[f]
			n := in.nodes[h.node[d]]
			code := h.code[d]
			spec := *s
			spec.Code = forecast.CodeVersion{Name: in.versions[code], CostFactor: h.factor[code]}
			noise := 1 + 0.05*math.Max(-2, math.Min(2, rng.NormFloat64()))
			wall := r2(spec.TotalWork() / n.Speed * h.contention * noise)
			start := r2(float64(d)*86400 + s.StartOffset + 600*rng.Float64())
			in.byDay[day] = append(in.byDay[day], &logs.RunRecord{
				Forecast: s.Name, Region: s.Region, Year: planYear, Day: day, Node: n.Name,
				CodeVersion: spec.Code.Name, CodeFactor: spec.Code.CostFactor,
				MeshName: s.Mesh.Name, MeshSides: s.Mesh.Sides, Timesteps: s.Timesteps,
				Start: start, End: r2(start + wall), Walltime: wall,
				Status: logs.StatusCompleted, Products: len(s.Products),
			})
		}
	}
	for d := histDays + 1; d <= totalDays; d++ {
		sd := sessionDay{day: d, failed: in.nodes[rng.Intn(nNodes)].Name}
		sd.queries = sqlMix(rng, in, d)
		for i := 0; i < movesPerDay; i++ {
			sd.moves = append(sd.moves, whatIf{run: rng.Intn(nForecast), arg: float64(rng.Intn(nNodes))})
		}
		for i := 0; i < delaysPerDay; i++ {
			sd.delays = append(sd.delays, whatIf{run: rng.Intn(nForecast), arg: 7200 * rng.Float64()})
		}
		in.sessions = append(in.sessions, sd)
	}
	return in
}

// sqlMix is one session day's queries over the runs table: a GROUP BY
// over the whole table, indexed lookups on forecast, code version and
// node (one with a GROUP BY), and range filters on walltime and day.
func sqlMix(rng *rand.Rand, in planningInputs, today int) []sqlCase {
	fc := in.specs[rng.Intn(len(in.specs))].Name
	node := in.nodes[rng.Intn(len(in.nodes))].Name
	version := in.versions[2+rng.Intn(2)]
	since := 1 + rng.Intn(today)
	lo := float64(5000 + rng.Intn(20000))
	hi := lo + float64(1000+rng.Intn(5000))
	from := 1 + rng.Intn(today)
	to := from + rng.Intn(7)
	row := func(vals ...string) string { return strings.Join(vals, "|") }
	itoa := func(n int) string { return strconv.Itoa(n) }
	ftoa := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return []sqlCase{{
		sql:    "SELECT node, COUNT(*), AVG(walltime) FROM runs GROUP BY node",
		match:  func(*logs.RunRecord) bool { return true },
		key:    func(r *logs.RunRecord) string { return r.Node },
		aggs:   []string{"count", "avg"},
		groups: 1,
	}, {
		sql:   fmt.Sprintf("SELECT day, walltime FROM runs WHERE forecast = '%s'", fc),
		match: func(r *logs.RunRecord) bool { return r.Forecast == fc },
		key:   func(r *logs.RunRecord) string { return row(itoa(r.Day), ftoa(r.Walltime)) },
	}, {
		sql:   fmt.Sprintf("SELECT forecast, day FROM runs WHERE code_version = '%s' AND day >= %d", version, since),
		match: func(r *logs.RunRecord) bool { return r.CodeVersion == version && r.Day >= since },
		key:   func(r *logs.RunRecord) string { return row(r.Forecast, itoa(r.Day)) },
	}, {
		sql:   fmt.Sprintf("SELECT COUNT(*) FROM runs WHERE walltime >= %g AND walltime < %g", lo, hi),
		match: func(r *logs.RunRecord) bool { return r.Walltime >= lo && r.Walltime < hi },
		key:   func(*logs.RunRecord) string { return "" },
		aggs:  []string{"count"},
	}, {
		sql:    fmt.Sprintf("SELECT forecast, MAX(walltime) FROM runs WHERE node = '%s' GROUP BY forecast", node),
		match:  func(r *logs.RunRecord) bool { return r.Node == node },
		key:    func(r *logs.RunRecord) string { return r.Forecast },
		aggs:   []string{"max"},
		groups: 1,
	}, {
		sql:    fmt.Sprintf("SELECT code_version, COUNT(*), SUM(walltime) FROM runs WHERE day >= %d AND day <= %d GROUP BY code_version", from, to),
		match:  func(r *logs.RunRecord) bool { return r.Day >= from && r.Day <= to },
		key:    func(r *logs.RunRecord) string { return r.CodeVersion },
		aggs:   []string{"count", "sum"},
		groups: 1,
	}}
}

// answer is a query result reduced to comparable form: group key (or
// projected row) → aggregate values.
type answer map[string][]float64

// fromResult reduces a statsdb result.
func (q sqlCase) fromResult(res *statsdb.Result) answer {
	out := answer{}
	for _, row := range res.Rows {
		if len(q.aggs) == 0 {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			k := strings.Join(cells, "|")
			out[k] = append(out[k], 1)
			continue
		}
		cells := make([]string, q.groups)
		for i := range cells {
			cells[i] = row[i].String()
		}
		vals := make([]float64, 0, len(q.aggs))
		for _, v := range row[q.groups:] {
			vals = append(vals, v.Float())
		}
		out[strings.Join(cells, "|")] = vals
	}
	return out
}

// scan answers the query directly from the generated records.
func (q sqlCase) scan(days map[int][]*logs.RunRecord, through int) answer {
	type acc struct {
		n        int
		sum, max float64
	}
	groups := map[string]*acc{}
	out := answer{}
	for d := 1; d <= through; d++ {
		for _, r := range days[d] {
			if !q.match(r) {
				continue
			}
			k := q.key(r)
			if len(q.aggs) == 0 {
				out[k] = append(out[k], 1)
				continue
			}
			a := groups[k]
			if a == nil {
				a = &acc{max: math.Inf(-1)}
				groups[k] = a
			}
			a.n++
			a.sum += r.Walltime
			a.max = math.Max(a.max, r.Walltime)
		}
	}
	if len(q.aggs) > 0 && q.groups == 0 && len(groups) == 0 {
		groups[""] = &acc{} // COUNT(*) over no rows is one row of 0
	}
	for k, a := range groups {
		var vals []float64
		for _, fn := range q.aggs {
			switch fn {
			case "count":
				vals = append(vals, float64(a.n))
			case "sum":
				vals = append(vals, a.sum)
			case "avg":
				vals = append(vals, a.sum/float64(a.n))
			case "max":
				vals = append(vals, a.max)
			}
		}
		out[k] = vals
	}
	return out
}

// sameAnswer compares answers; sums and means may differ in the last bits
// because the database adds rows in its own order.
func sameAnswer(a, b answer) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Abs(av[i]-bv[i]) > 1e-9*math.Max(1, math.Abs(bv[i])) {
				return false
			}
		}
	}
	return true
}

func preparePlanning(o options) (func(bool) (*iterResult, error), error) {
	in := planningInputsFor(o)
	return func(traced bool) (*iterResult, error) { return planningIteration(o, in, traced) }, nil
}

// planningIteration builds the history tree, cold-harvests it into
// statsdb (several times, keeping the last), then runs the session days,
// timing every operator request.
func planningIteration(opt options, in planningInputs, traced bool) (*iterResult, error) {
	r := &iterResult{}
	var ck checks
	// The session's sim clock: harvests and log mtimes read it.
	simNow := float64(in.histDays) * 86400
	clock := func() float64 { return simNow }
	fs := vfs.New(clock)
	for d := 1; d <= in.histDays; d++ {
		for _, rec := range in.byDay[d] {
			if err := logs.Write(fs, rec); err != nil {
				return nil, err
			}
		}
	}
	var (
		h  *harvest.Harvester
		db *statsdb.DB
	)
	for i := 0; i < planningSetups; i++ {
		db = statsdb.NewDB()
		var st harvest.PassStats
		secs, err := timeSetup(func() (err error) {
			h, err = harvest.New(fs, db, harvest.NewVFSJournal(vfs.New(clock), "/harvest/journal.jsonl"),
				harvest.Options{Clock: clock})
			if err != nil {
				return err
			}
			st, err = h.Pass()
			return err
		})
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, secs)
		ck.check(st.Ingested == in.histDays*in.nForecast && st.Quarantined == 0,
			"cold harvest ingested %d (quarantined %d), want %d", st.Ingested, st.Quarantined, in.histDays*in.nForecast)
	}

	var b *breakdown
	if traced {
		b = newBreakdown()
	}
	lat := map[string][]float64{} // request latencies by layer
	var reqCPU float64
	// request times one operator request; an error counts as a failed one.
	request := func(layer string, fn func() error) {
		c0 := cpuSeconds()
		t0 := time.Now()
		err := fn()
		d := since(t0)
		reqCPU += cpuSeconds() - c0
		r.steps = append(r.steps, d)
		lat[layer] = append(lat[layer], d)
		if b != nil {
			b.self[layer] += d
		}
		ck.check(err == nil, "%s: %v", layer, err)
	}
	dg := newDigest()
	var (
		ingested, hits, scanned int
		dropped                 int
		passes                  []float64
	)
	// The benchmark's own work between requests (writing the day's logs,
	// checking answers) is timed as bench.* rows, so whatever is left of
	// the timed part's wall is really unattributed.
	tp := startTimed()
	for _, sd := range in.sessions {
		// The factory wrote today's logs overnight.
		simNow = float64(sd.day) * 86400
		var err error
		b.time("bench.write_logs", func() {
			for _, rec := range in.byDay[sd.day] {
				if err = logs.Write(fs, rec); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		var pass harvest.PassStats
		request("harvest.pass", func() (err error) { pass, err = h.Pass(); return err })
		passes = append(passes, lat["harvest.pass"][len(lat["harvest.pass"])-1])
		ck.check(pass.Ingested == len(in.byDay[sd.day]) && pass.Updated == 0 && pass.Quarantined == 0,
			"day %d harvest ingested %d updated %d quarantined %d, wrote %d",
			sd.day, pass.Ingested, pass.Updated, pass.Quarantined, len(in.byDay[sd.day]))
		ingested += pass.Ingested
		hits += pass.WatermarkHits
		scanned += pass.Scanned

		for qi, q := range sd.queries {
			var res *statsdb.Result
			request("statsdb.query", func() (err error) { res, err = db.Query(q.sql); return err })
			if res == nil {
				continue
			}
			b.time("bench.check", func() {
				got := q.fromResult(res)
				if opt.tamper && qi == 0 {
					for k := range got {
						got[k][0]++ // one altered SQL row
						break
					}
				}
				ck.check(sameAnswer(got, q.scan(in.byDay, sd.day)), "day %d: %s disagrees with a direct scan", sd.day, q.sql)
				dg.count(int64(len(res.Rows)))
			})
		}

		var records []*logs.RunRecord
		request("statsdb.read_runs", func() (err error) { records, err = h.Records(); return err })
		var window []*logs.RunRecord
		perForecast := map[string]int{}
		b.time("bench.check", func() {
			for _, rec := range records {
				if rec.Day > sd.day-evalWindow {
					window = append(window, rec)
					perForecast[rec.Forecast]++
				}
			}
		})
		var acc core.EstimateAccuracy
		request("core.evaluate_estimates", func() error { acc = core.EvaluateEstimates(window, in.nodes); return nil })
		want := 0
		for _, n := range perForecast {
			want += n - 1
		}
		ck.check(len(acc.Samples) == want && !math.IsNaN(acc.MAPE), "day %d: %d estimate samples (MAPE %v), want %d",
			sd.day, len(acc.Samples), acc.MAPE, want)
		dg.num(acc.MAPE)

		var runs []core.Run
		request("core.plan_runs", func() error {
			runs = core.NewEstimator(records, in.nodes).PlanRuns(in.specs, in.nodes)
			return nil
		})
		ck.check(len(runs) == len(in.specs), "day %d: %d planned runs for %d specs", sd.day, len(runs), len(in.specs))
		var s *core.Schedule
		request("core.build_schedule", func() (err error) {
			s, err = core.BuildSchedule(in.nodes, runs, core.ScheduleOptions{Heuristic: planHeuristic, AllowDrop: true})
			return err
		})
		if s == nil {
			continue
		}
		ck.check(len(s.Plan.Runs)+len(s.Dropped) == len(runs) && s.Feasible(),
			"day %d: schedule keeps %d + drops %d of %d runs, feasible %v", sd.day, len(s.Plan.Runs), len(s.Dropped), len(runs), s.Feasible())
		dropped = len(s.Dropped)
		dg.str(strings.Join(s.Dropped, ","))

		// What-if edits address runs by their rank in the kept plan.
		names := make([]string, len(s.Plan.Runs))
		for i, pr := range s.Plan.Runs {
			names[i] = pr.Name
		}
		sort.Strings(names)
		for i, mv := range sd.moves {
			run, node := names[mv.run%len(names)], in.nodes[int(mv.arg)].Name
			request("core.move", func() error { return s.Move(run, node) })
			if i%checkEvery == 0 {
				b.time("bench.check", func() {
					pred, err := s.Plan.Clone().Predict()
					ck.check(err == nil && reflect.DeepEqual(pred.Completion, s.Prediction.Completion),
						"day %d: completions after Move(%s, %s) differ from a fresh Predict", sd.day, run, node)
				})
			}
		}
		for _, dl := range sd.delays {
			run := names[dl.run%len(names)]
			pr, _ := s.Plan.Run(run)
			start := math.Min(pr.Start+dl.arg, pr.Deadline)
			request("core.delay", func() error { return s.Delay(run, start) })
		}
		for _, pol := range []core.ReschedulePolicy{core.MinimalMove, core.FullReshuffle} {
			layer := "core.reschedule_minimal"
			if pol == core.FullReshuffle {
				layer = "core.reschedule_reshuffle"
			}
			var after *core.Schedule
			request(layer, func() (err error) {
				after, err = core.RescheduleAfterFailure(s, sd.failed, pol, planHeuristic)
				return err
			})
			if after == nil {
				continue
			}
			onFailed := 0
			for _, n := range after.Plan.Assign {
				if n == sd.failed {
					onFailed++
				}
			}
			ck.check(onFailed == 0 && len(after.Plan.Runs) == len(s.Plan.Runs),
				"day %d: %s left %d runs on failed %s", sd.day, pol, onFailed, sd.failed)
			dg.str(strings.Join(core.MovedRuns(s, after), ","))
		}
		b.time("bench.check", func() {
			assigned := make([]string, 0, len(s.Plan.Assign))
			for run, node := range s.Plan.Assign {
				assigned = append(assigned, run+"="+node)
			}
			sort.Strings(assigned)
			dg.str(strings.Join(assigned, ","))
			dg.num(s.Prediction.Makespan())
		})
	}
	tp.stop(r)
	// The reported wall and CPU are the operator's requests alone; the
	// benchmark's own work between them is not. r.span keeps the whole.
	r.wall, r.cpu = 0, reqCPU
	for _, d := range r.steps {
		r.wall += d
	}
	r.checks = ck
	r.digest = dg.sum()
	rows := 0
	if t := db.Table(statsdb.RunsTableName); t != nil {
		rows = t.Len()
	}
	r.summary = fmt.Sprintf("requests %d days %d rows %d dropped %d evaluate p50 %.0fms",
		len(r.steps), len(in.sessions), rows, dropped, 1000*median(lat["core.evaluate_estimates"]))

	if b != nil {
		v := b.values
		ms := func(layer string, q float64) float64 { return 1000 * quantile(lat[layer], q) }
		v["harvest.pass_ms"] = 1000 * median(passes)
		v["harvest.ingested"] = float64(ingested)
		v["harvest.watermark_hits"] = float64(hits)
		if scanned > 0 {
			v["harvest.hit_ratio"] = float64(hits) / float64(scanned)
		}
		v["statsdb.query_p50_ms"] = ms("statsdb.query", 0.5)
		v["statsdb.query_p99_ms"] = ms("statsdb.query", 0.99)
		v["statsdb.runs_rows"] = float64(rows)
		v["core.build_schedule_ms"] = ms("core.build_schedule", 0.5)
		v["core.plan_runs_ms"] = ms("core.plan_runs", 0.5)
		v["core.move_p50_ms"] = ms("core.move", 0.5)
		v["core.move_p99_ms"] = ms("core.move", 0.99)
		v["core.reschedule_minimal_ms"] = ms("core.reschedule_minimal", 0.5)
		v["core.reschedule_reshuffle_ms"] = ms("core.reschedule_reshuffle", 0.5)
		v["core.evaluate_estimates_ms"] = ms("core.evaluate_estimates", 0.5)
		v["core.dropped"] = float64(dropped)
		probeTree(b, fs)
		r.layers = b
	}
	return r, nil
}
