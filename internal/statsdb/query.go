package statsdb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Op is a comparison operator in a predicate.
type Op int

// Predicate operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Pred is one column-vs-literal comparison. Predicates in a query are
// conjoined (AND).
type Pred struct {
	Col string
	Op  Op
	Val Value
}

// AggFn is an aggregate function.
type AggFn int

// Aggregate functions.
const (
	AggCount AggFn = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the function name in SQL syntax.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFn(%d)", int(f))
	}
}

// Agg is one aggregate in a select list. Col is "*" for COUNT(*).
type Agg struct {
	Fn  AggFn
	Col string
}

// Label returns the result-column label, e.g. "avg(walltime)".
func (a Agg) Label() string {
	return strings.ToLower(a.Fn.String()) + "(" + a.Col + ")"
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Col  string // a selected column or aggregate label
	Desc bool
}

// Query is a single-table select. Build with Select, chain modifiers, and
// finish with Run.
type Query struct {
	table   *Table
	cols    []string
	star    bool // the select list is *: every column, or none beside aggregates
	aggs    []Agg
	preds   []Pred
	groupBy []string
	orderBy []OrderKey
	limit   int // 0 = no limit
	err     error
}

// Select starts a query over a table projecting the named columns. With
// none it selects *: every column, or none beside aggregates.
func Select(t *Table, cols ...string) *Query {
	q := &Query{table: t, limit: 0}
	if t == nil {
		q.err = fmt.Errorf("statsdb: Select on nil table")
		return q
	}
	if len(cols) == 0 {
		q.star = true
		for _, c := range t.schema {
			q.cols = append(q.cols, c.Name)
		}
	} else {
		q.cols = append(q.cols, cols...)
	}
	return q
}

// Aggregate adds aggregate terms to the select list.
func (q *Query) Aggregate(aggs ...Agg) *Query {
	q.aggs = append(q.aggs, aggs...)
	return q
}

// Where adds AND-conjoined predicates.
func (q *Query) Where(preds ...Pred) *Query {
	q.preds = append(q.preds, preds...)
	return q
}

// GroupBy sets grouping columns. With grouping, the plain select list must
// be a subset of the grouping columns.
func (q *Query) GroupBy(cols ...string) *Query {
	q.groupBy = append(q.groupBy, cols...)
	return q
}

// OrderBy sets result ordering.
func (q *Query) OrderBy(keys ...OrderKey) *Query {
	q.orderBy = append(q.orderBy, keys...)
	return q
}

// Limit caps the number of result rows (0 = unlimited).
func (q *Query) Limit(n int) *Query {
	q.limit = n
	return q
}

// Result is a query result: named columns and rows.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Column returns the index of a result column, or -1.
func (r *Result) Column(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Floats extracts a numeric result column as float64s.
func (r *Result) Floats(name string) ([]float64, error) {
	ci := r.Column(name)
	if ci < 0 {
		return nil, fmt.Errorf("statsdb: result has no column %q", name)
	}
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		if !row[ci].IsNumeric() {
			return nil, fmt.Errorf("statsdb: column %q is not numeric", name)
		}
		out[i] = row[ci].Float()
	}
	return out, nil
}

// Explain describes the access path and operators the query will use,
// without executing it: "index probe on <col>" or "full scan", plus
// filter, group, order, and limit stages.
func (q *Query) Explain() (string, error) {
	if q.err != nil {
		return "", q.err
	}
	t := q.table
	var b strings.Builder
	if i := q.probe(); i >= 0 {
		fmt.Fprintf(&b, "index probe on %s.%s", t.name, q.preds[i].Col)
	} else {
		fmt.Fprintf(&b, "full scan of %s (%d rows)", t.name, t.Len())
	}
	if n := len(q.preds); n > 0 {
		fmt.Fprintf(&b, " | filter %d predicate(s)", n)
	}
	if len(q.groupBy) > 0 {
		fmt.Fprintf(&b, " | hash group by (%s)", strings.Join(q.groupBy, ", "))
	} else if len(q.aggs) > 0 {
		b.WriteString(" | aggregate")
	}
	if len(q.orderBy) > 0 {
		var keys []string
		for _, k := range q.orderBy {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			keys = append(keys, k.Col+" "+dir)
		}
		fmt.Fprintf(&b, " | sort (%s)", strings.Join(keys, ", "))
	}
	if q.limit > 0 {
		fmt.Fprintf(&b, " | limit %d", q.limit)
	}
	return b.String(), nil
}

// Run plans and executes the query.
//
// Planning: an equality predicate on an indexed column, with a literal of
// the column's type, selects an index probe; otherwise the table is
// scanned. The predicates then filter the selected row ids column by
// column. Grouping hashes rows by their group columns' values; ordering
// is a stable sort over the result.
func (q *Query) Run() (*Result, error) {
	if q.err != nil {
		return nil, q.err
	}
	t := q.table

	// Resolve and validate referenced columns, once: the per-row loops
	// below index rows by these positions.
	var cols columns
	var err error
	if cols.sel, err = t.positions(q.cols); err != nil {
		return nil, err
	}
	predCols := make([]string, len(q.preds))
	for i, p := range q.preds {
		predCols[i] = p.Col
	}
	if cols.preds, err = t.positions(predCols); err != nil {
		return nil, err
	}
	if cols.group, err = t.positions(q.groupBy); err != nil {
		return nil, err
	}
	cols.aggs = make([]int, len(q.aggs))
	for i, a := range q.aggs {
		if a.Col == "*" {
			if a.Fn != AggCount {
				return nil, fmt.Errorf("statsdb: %s(*) is not defined", a.Fn)
			}
			cols.aggs[i] = -1
			continue
		}
		if cols.aggs[i] = t.schema.Index(a.Col); cols.aggs[i] < 0 {
			return nil, fmt.Errorf("statsdb: table %s has no column %q", t.name, a.Col)
		}
	}
	if len(q.groupBy) > 0 {
		group := make(map[string]bool, len(q.groupBy))
		for _, g := range q.groupBy {
			group[g] = true
		}
		for _, c := range q.plain() {
			if !group[c] {
				return nil, fmt.Errorf("statsdb: column %q selected but not grouped", c)
			}
		}
	}
	if len(q.aggs) > 0 && len(q.groupBy) == 0 && len(q.plain()) > 0 {
		return nil, fmt.Errorf("statsdb: plain columns with aggregates require GROUP BY")
	}

	sel, err := q.filter(cols.preds)
	if err != nil {
		return nil, err
	}

	var res *Result
	if len(q.aggs) > 0 || len(q.groupBy) > 0 {
		res, err = q.aggregate(sel, cols)
	} else {
		res = q.project(sel, cols.sel)
	}
	if err != nil {
		return nil, err
	}
	if err := q.order(res); err != nil {
		return nil, err
	}
	if q.limit > 0 && len(res.Rows) > q.limit {
		res.Rows = res.Rows[:q.limit]
	}
	return res, nil
}

// plain returns the select list's plain columns: * stands for every
// column alone and for none beside aggregates.
func (q *Query) plain() []string {
	if q.star && len(q.aggs) > 0 {
		return nil
	}
	return q.cols
}

// columns are a query's column positions in its table's schema, resolved
// once per Run.
type columns struct {
	sel, preds, group []int
	aggs              []int // -1 for COUNT(*)
}

// positions resolves column names to their schema positions.
func (t *Table) positions(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, c := range names {
		if out[i] = t.schema.Index(c); out[i] < 0 {
			return nil, fmt.Errorf("statsdb: table %s has no column %q", t.name, c)
		}
	}
	return out, nil
}

// probe returns the index of the predicate an index probe answers — the
// first equality on an indexed column whose literal has the column's
// type — or -1 when the query scans. The hash index holds the column's
// own values, so a literal of another type would miss rows a scan's
// numeric comparison matches (INT 2 = 2.0) or hide the type error a scan
// reports. A query with any predicate whose literal cannot compare with
// its column scans too: it fails on the first row that reaches that
// predicate, and a probe would hand it different rows than a scan.
func (q *Query) probe() int {
	pi := -1
	for i, p := range q.preds {
		ci := q.table.schema.Index(p.Col)
		if ci < 0 {
			continue // Run reports it
		}
		switch typ := q.table.schema[ci].Type; {
		case !comparableTypes(typ, p.Val.t):
			return -1
		case pi < 0 && p.Op == OpEq && typ == p.Val.t && q.table.cols[ci].index != nil:
			pi = i
		}
	}
	return pi
}

// filter selects the rows every predicate accepts, by index probe or
// scan, in ascending row order; cis are the predicates' column positions.
func (q *Query) filter(cis []int) ([]int32, error) {
	t := q.table
	var sel []int32
	pi := q.probe()
	if pi >= 0 {
		sel = t.lookupRows(nil, cis[pi], q.preds[pi].Val)
		slices.Sort(sel)
	} else {
		sel = make([]int32, t.n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	for i, p := range q.preds {
		if len(sel) == 0 {
			break
		}
		if i == pi {
			// The probe returned exactly the rows this equality accepts:
			// same-type keys are equal just when Compare says so, since
			// NaN is refused and −0 and +0 share a key.
			continue
		}
		var err error
		if sel, err = t.cols[cis[i]].filter(sel, p); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// filter keeps the rows of sel, in place, whose value satisfies p as
// Compare orders it. The comparison is resolved once: a literal that
// cannot compare with the column fails, as on the first row that reaches
// it, and a STRING column decides each dictionary code once, unless sel
// holds fewer rows than the dictionary holds values.
func (c *column) filter(sel []int32, p Pred) ([]int32, error) {
	if !comparableTypes(c.typ, p.Val.t) {
		_, err := Compare(c.value(int(sel[0])), p.Val)
		return nil, err
	}
	if p.Op < OpEq || p.Op > OpGe {
		return nil, fmt.Errorf("statsdb: unknown operator %v", p.Op)
	}
	var pass [3]bool // by comparison result + 1
	for r := range pass {
		pass[r] = [...]bool{OpEq: r == 1, OpNe: r != 1, OpLt: r < 1, OpLe: r <= 1, OpGt: r > 1, OpGe: r >= 1}[p.Op]
	}
	switch lit := p.Val; {
	case c.typ == Int && lit.t == Int:
		return keep(sel, c.ints, func(x int64) bool { return pass[order(x, lit.i)+1] }), nil
	case c.typ == Int:
		return keep(sel, c.ints, func(x int64) bool { return pass[order(float64(x), lit.f)+1] }), nil
	case c.typ == Float:
		f := lit.Float()
		return keep(sel, c.flts, func(x float64) bool { return pass[order(x, f)+1] }), nil
	case c.typ == Bool:
		b := boolCode(lit.b)
		return keep(sel, c.codes, func(x uint32) bool { return pass[order(x, b)+1] }), nil
	}
	if len(sel) < len(c.dict) {
		return keep(sel, c.codes, func(k uint32) bool { return pass[order(c.dict[k], p.Val.s)+1] }), nil
	}
	codes := make([]bool, len(c.dict))
	for k, s := range c.dict {
		codes[k] = pass[order(s, p.Val.s)+1]
	}
	return keep(sel, c.codes, func(k uint32) bool { return codes[k] }), nil
}

func keep[T any](sel []int32, vec []T, pass func(T) bool) []int32 {
	out := sel[:0]
	for _, r := range sel {
		if pass(vec[r]) {
			out = append(out, r)
		}
	}
	return out
}

// project emits the plain select list; cis are its column positions.
func (q *Query) project(sel []int32, cis []int) *Result {
	res := &Result{Columns: append([]string(nil), q.cols...)}
	if len(sel) == 0 {
		return res
	}
	w := len(cis)
	cells := make([]Value, len(sel)*w)
	for j, ci := range cis {
		c := &q.table.cols[ci]
		for i, r := range sel {
			cells[i*w+j] = c.value(int(r))
		}
	}
	res.Rows = make([][]Value, len(sel))
	for i := range res.Rows {
		res.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return res
}

// aggregate groups rows and computes aggregates per group (or one global
// group without GROUP BY). Rows group by their group columns' keys, as
// the hash index keys them, so −0 and +0 form one group; groups emit in
// first-seen order, each with its first row's values.
func (q *Query) aggregate(sel []int32, cols columns) (*Result, error) {
	t := q.table
	selectCols := q.plain()
	res := &Result{Columns: append([]string(nil), selectCols...)}
	for i, a := range q.aggs {
		res.Columns = append(res.Columns, a.Label())
		if a.Fn > AggMax {
			return nil, fmt.Errorf("statsdb: unknown aggregate %v", a.Fn)
		}
		if ci := cols.aggs[i]; len(sel) > 0 && (a.Fn == AggSum || a.Fn == AggAvg) && !comparableTypes(t.schema[ci].Type, Float) {
			return nil, fmt.Errorf("statsdb: %s over non-numeric column %q", a.Fn, a.Col)
		}
	}

	// firsts holds each group's first row; accs its accumulators, one per
	// aggregate, group after group.
	var firsts []int32
	var accs []accum
	groups := make(map[string]int)
	var key []byte // the row's group key, rebuilt in place per row
	na := len(q.aggs)
	for _, r := range sel {
		key = key[:0]
		for _, ci := range cols.group {
			key = binary.LittleEndian.AppendUint64(key, t.cols[ci].key(int(r)))
		}
		g, ok := groups[string(key)]
		if !ok {
			g = len(firsts)
			groups[string(key)] = g
			firsts = append(firsts, r)
			accs = append(accs, make([]accum, na)...)
		}
		for i, a := range q.aggs {
			if a.Fn == AggCount {
				accs[g*na+i].count++
			} else {
				accs[g*na+i].observe(a.Fn, t.cols[cols.aggs[i]].value(int(r)))
			}
		}
	}
	if len(q.groupBy) == 0 && len(firsts) == 0 {
		// Aggregates over an empty selection still yield one row.
		firsts, accs = []int32{-1}, make([]accum, na)
	}

	for g, first := range firsts {
		row := make([]Value, 0, len(res.Columns))
		for _, c := range selectCols {
			row = append(row, t.cols[t.schema.Index(c)].value(int(first)))
		}
		for i, a := range q.aggs {
			acc := &accs[g*na+i]
			if a.Fn == AggSum && acc.ints && acc.carry != 0 {
				return nil, fmt.Errorf("statsdb: SUM(%s) leaves the INT range", a.Col)
			}
			row = append(row, acc.result(a.Fn))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// accum accumulates one aggregate over a group's values: AVG, and SUM
// over FLOATs, add float64s in row order; SUM over INTs adds exactly in
// int64, counting wraps in carry, so the total is an INT whenever it fits
// and an error when it does not; MIN and MAX keep the first of equal
// values.
type accum struct {
	count    int64
	sum      float64
	isum     int64 // the INT sum modulo 2^64
	carry    int64 // net wraps of isum: nonzero when the sum leaves int64
	ints     bool
	min, max Value
}

func (a *accum) observe(fn AggFn, v Value) {
	if a.count == 0 {
		a.min, a.max, a.ints = v, v, true
	}
	a.count++
	switch fn {
	case AggSum, AggAvg:
		a.sum += v.Float()
		a.ints = a.ints && v.t == Int
		if a.ints && fn == AggSum {
			s := a.isum + v.i
			switch {
			case v.i > 0 && s < a.isum:
				a.carry++
			case v.i < 0 && s > a.isum:
				a.carry--
			}
			a.isum = s
		}
	case AggMin:
		if c, _ := Compare(v, a.min); c < 0 {
			a.min = v
		}
	case AggMax:
		if c, _ := Compare(v, a.max); c > 0 {
			a.max = v
		}
	}
}

func (a *accum) result(fn AggFn) Value {
	switch {
	case fn == AggCount:
		return IntVal(a.count)
	case fn == AggSum && a.ints && a.count > 0:
		return IntVal(a.isum)
	case fn == AggSum:
		return FloatVal(a.sum)
	case fn == AggAvg:
		return FloatVal(a.sum / float64(max(a.count, 1)))
	case a.count == 0:
		return IntVal(0)
	case fn == AggMin:
		return a.min
	}
	return a.max
}

// order applies ORDER BY to a result in place (stable).
func (q *Query) order(res *Result) error {
	if len(q.orderBy) == 0 {
		return nil
	}
	cis := make([]int, len(q.orderBy))
	for i, k := range q.orderBy {
		ci := res.Column(k.Col)
		if ci < 0 {
			return fmt.Errorf("statsdb: ORDER BY column %q is not in the result", k.Col)
		}
		cis[i] = ci
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for k, key := range q.orderBy {
			c, err := Compare(res.Rows[i][cis[k]], res.Rows[j][cis[k]])
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
