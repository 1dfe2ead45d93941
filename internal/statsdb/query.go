package statsdb

import (
	"fmt"
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

// matches evaluates the predicate against a value.
func (p Pred) matches(v Value) (bool, error) {
	c, err := Compare(v, p.Val)
	if err != nil {
		return false, err
	}
	switch p.Op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("statsdb: unknown operator %v", p.Op)
	}
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
	aggs    []Agg
	preds   []Pred
	groupBy []string
	orderBy []OrderKey
	limit   int // 0 = no limit
	err     error
}

// Select starts a query over a table projecting the named columns (or all
// columns when none are given).
func Select(t *Table, cols ...string) *Query {
	q := &Query{table: t, limit: 0}
	if t == nil {
		q.err = fmt.Errorf("statsdb: Select on nil table")
		return q
	}
	if len(cols) == 0 {
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
// the column's type, selects an index probe; remaining predicates filter
// the probed rows. Otherwise the table is scanned. Grouping hashes rows by
// group key; ordering is a stable sort over the result.
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
		for _, c := range q.cols {
			if !group[c] {
				return nil, fmt.Errorf("statsdb: column %q selected but not grouped", c)
			}
		}
	}
	if len(q.aggs) > 0 && len(q.groupBy) == 0 && len(q.colsExplicit()) > 0 {
		return nil, fmt.Errorf("statsdb: plain columns with aggregates require GROUP BY")
	}

	rowIDs, err := q.plan(cols.preds)
	if err != nil {
		return nil, err
	}

	var res *Result
	if len(q.aggs) > 0 || len(q.groupBy) > 0 {
		res, err = q.aggregate(rowIDs, cols)
	} else {
		res = q.project(rowIDs, cols.sel)
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

// colsExplicit returns the select-list columns when aggregates are present
// (the implicit all-columns default does not count).
func (q *Query) colsExplicit() []string {
	if len(q.cols) == len(q.table.schema) {
		all := true
		for i, c := range q.cols {
			if c != q.table.schema[i].Name {
				all = false
				break
			}
		}
		if all {
			return nil
		}
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
// type — or -1 when the query scans. The hash index holds exact Values, so
// a literal of another type would miss rows a scan's numeric comparison
// matches (INT 2 = 2.0) or hide the type error a scan reports.
func (q *Query) probe() int {
	t := q.table
	for i, p := range q.preds {
		if p.Op != OpEq || !t.Indexed(p.Col) {
			continue
		}
		if ci := t.schema.Index(p.Col); t.schema[ci].Type == p.Val.Type() {
			return i
		}
	}
	return -1
}

// plan chooses index probe vs scan and applies all predicates; cis are
// the predicates' column positions.
func (q *Query) plan(cis []int) ([]int, error) {
	t := q.table
	var ids []int
	if pi := q.probe(); pi >= 0 {
		p := q.preds[pi]
		ids = append(ids, t.indexes[p.Col][p.Val]...)
	} else {
		ids = make([]int, len(t.rows))
		for i := range t.rows {
			ids[i] = i
		}
	}
	var out []int
	for _, id := range ids {
		row := t.rows[id]
		keep := true
		for i, p := range q.preds {
			ok, err := p.matches(row[cis[i]])
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, id)
		}
	}
	sort.Ints(out) // deterministic row order regardless of access path
	return out, nil
}

// project emits the plain select list; cis are its column positions.
func (q *Query) project(rowIDs []int, cis []int) *Result {
	t := q.table
	res := &Result{Columns: append([]string(nil), q.cols...)}
	for _, id := range rowIDs {
		row := make([]Value, len(cis))
		for i, ci := range cis {
			row[i] = t.rows[id][ci]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// aggregate groups rows and computes aggregates per group (or one global
// group without GROUP BY).
func (q *Query) aggregate(rowIDs []int, cols columns) (*Result, error) {
	t := q.table
	groupCols := q.groupBy
	selectCols := q.colsExplicit()
	if len(groupCols) == 0 {
		selectCols = nil
	}

	res := &Result{}
	res.Columns = append(res.Columns, selectCols...)
	for _, a := range q.aggs {
		res.Columns = append(res.Columns, a.Label())
	}

	type groupState struct {
		key    []Value
		accums []*accum
		order  int
	}
	groups := make(map[string]*groupState)
	var groupOrder []string

	var key []byte // the row's group key, rebuilt in place per row
	for _, id := range rowIDs {
		row := t.rows[id]
		key = key[:0]
		for _, ci := range cols.group {
			key = row[ci].appendKey(key)
		}
		g, ok := groups[string(key)]
		if !ok {
			g = &groupState{key: make([]Value, len(cols.group)), order: len(groupOrder)}
			for i, ci := range cols.group {
				g.key[i] = row[ci]
			}
			for range q.aggs {
				g.accums = append(g.accums, &accum{})
			}
			k := string(key)
			groups[k] = g
			groupOrder = append(groupOrder, k)
		}
		for i, a := range q.aggs {
			if cols.aggs[i] < 0 {
				g.accums[i].count++
				continue
			}
			if err := g.accums[i].observe(a, row[cols.aggs[i]]); err != nil {
				return nil, err
			}
		}
	}
	if len(groupCols) == 0 && len(groupOrder) == 0 {
		// Aggregates over an empty selection still yield one row.
		g := &groupState{}
		for range q.aggs {
			g.accums = append(g.accums, &accum{})
		}
		groups[""] = g
		groupOrder = append(groupOrder, "")
	}

	// Emit groups in first-seen order; a subset of the select columns maps
	// group-key values into the output row.
	keyIdx := make(map[string]int, len(groupCols))
	for i, g := range groupCols {
		keyIdx[g] = i
	}
	for _, key := range groupOrder {
		g := groups[key]
		row := make([]Value, 0, len(res.Columns))
		for _, c := range selectCols {
			row = append(row, g.key[keyIdx[c]])
		}
		for i, a := range q.aggs {
			v, err := g.accums[i].result(a)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// accum accumulates one aggregate.
type accum struct {
	count  int64
	sum    float64
	min    Value
	max    Value
	seen   bool
	sawInt bool
	sawFlt bool
}

func (a *accum) observe(ag Agg, v Value) error {
	switch ag.Fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("statsdb: %s over non-numeric column %q", ag.Fn, ag.Col)
		}
		a.count++
		a.sum += v.Float()
		if v.Type() == Int {
			a.sawInt = true
		} else {
			a.sawFlt = true
		}
		return nil
	case AggMin, AggMax:
		a.count++
		if !a.seen {
			a.min, a.max, a.seen = v, v, true
			return nil
		}
		cMin, err := Compare(v, a.min)
		if err != nil {
			return err
		}
		if cMin < 0 {
			a.min = v
		}
		cMax, err := Compare(v, a.max)
		if err != nil {
			return err
		}
		if cMax > 0 {
			a.max = v
		}
		return nil
	default:
		return fmt.Errorf("statsdb: unknown aggregate %v", ag.Fn)
	}
}

func (a *accum) result(ag Agg) (Value, error) {
	switch ag.Fn {
	case AggCount:
		return IntVal(a.count), nil
	case AggSum:
		if a.sawInt && !a.sawFlt {
			return IntVal(int64(a.sum)), nil
		}
		return FloatVal(a.sum), nil
	case AggAvg:
		if a.count == 0 {
			return FloatVal(0), nil
		}
		return FloatVal(a.sum / float64(a.count)), nil
	case AggMin:
		if !a.seen {
			return IntVal(0), nil
		}
		return a.min, nil
	case AggMax:
		if !a.seen {
			return IntVal(0), nil
		}
		return a.max, nil
	default:
		return Value{}, fmt.Errorf("statsdb: unknown aggregate %v", ag.Fn)
	}
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
