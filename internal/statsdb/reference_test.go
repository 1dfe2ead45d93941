package statsdb

import (
	"encoding"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The differential oracle: a reference evaluator over plain rows — nested
// loops, no indexes, Compare for every value comparison — and a seeded
// generator of well-typed tables and queries over the runs + nodes
// fixture. The engine must give the reference's answer (or error where
// it errors) on an indexed and on an unindexed copy of every table.

// refTable is a table as plain rows, the reference's only input.
type refTable struct {
	schema Schema
	rows   [][]Value
}

// Value pools: small, so predicates, groups and joins hit ties, with the
// edges the comparison rules turn on — INTs on both sides of 2^53, the
// int64 extremes, −0 beside +0, and floats past int64's range.
var (
	refInts    = []int64{0, 1, 2, -1, 3, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	refFloats  = []float64{0, math.Copysign(0, -1), 0.5, 1, 2, -1.5, 2.5, 1 << 53, 1<<53 + 2, 1e300, -1e300, 1e19}
	refStrings = []string{"", "a", "b", "ab", "fnode01", "fnode02", "it's"}
)

func genValue(rng *rand.Rand, t Type) Value {
	switch t {
	case Int:
		return IntVal(refInts[rng.Intn(len(refInts))])
	case Float:
		return FloatVal(refFloats[rng.Intn(len(refFloats))])
	case String:
		return StringVal(refStrings[rng.Intn(len(refStrings))])
	default:
		return BoolVal(rng.Intn(2) == 1)
	}
}

// genRow draws a row of schema from the pools.
func genRow(rng *rand.Rand, schema Schema) []Value {
	row := make([]Value, len(schema))
	for i, c := range schema {
		row[i] = genValue(rng, c.Type)
	}
	return row
}

// genFixture builds the runs + nodes fixture for seed: the engine's
// tables, indexed on random columns (created before, between or after
// the inserts) or not at all, and the reference's plain copy. Runs
// carries a BOOL column, and some rows are updated in place, so both the
// index-building and the index-maintaining paths run.
func genFixture(tb testing.TB, seed int64, indexed bool) (*DB, map[string]*refTable) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	irng := rand.New(rand.NewSource(^seed)) // index choices only: both builds hold the same rows
	db := NewDB()
	ref := map[string]*refTable{}
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	nodeSchema := Schema{{Name: "name", Type: String}, {Name: "cpus", Type: Int}, {Name: "speed", Type: Float}}
	runs, err := EnsureRunsTable(NewDB())
	must(err)
	for _, spec := range []struct {
		name   string
		schema Schema
		rows   int
	}{
		{RunsTableName, append(runs.Schema(), Column{Name: "late", Type: Bool}), rng.Intn(13)},
		{NodesTableName, nodeSchema, rng.Intn(6)},
	} {
		tbl, err := db.CreateTable(spec.name, spec.schema)
		must(err)
		rt := &refTable{schema: tbl.Schema()}
		ref[spec.name] = rt
		indexAt := irng.Intn(spec.rows + 1)
		for i := 0; i <= spec.rows; i++ {
			if indexed && i == indexAt {
				for _, c := range tbl.Schema() {
					if irng.Intn(2) == 0 {
						must(tbl.CreateIndex(c.Name))
					}
				}
			}
			if i == spec.rows {
				break
			}
			row := genRow(rng, rt.schema)
			must(tbl.Insert(row))
			rt.rows = append(rt.rows, row)
		}
		for u := rng.Intn(3); u > 0 && len(rt.rows) > 0; u-- {
			r, row := rng.Intn(len(rt.rows)), genRow(rng, rt.schema)
			must(tbl.Update(r, row))
			rt.rows[r] = row
		}
	}
	return db, ref
}

// genCol is a column reference as the SQL writes it and as it resolves.
type genCol struct {
	written, resolved string
	typ               Type
}

// genQuery is one generated SELECT.
type genQuery struct {
	from, right string   // right is "" without a JOIN
	on          []genCol // left, right ON operands
	star        bool
	cols        []genCol // plain select list
	aggs        []Agg    // Col as written ("*" for COUNT(*))
	aggCols     []genCol // resolved aggregate columns (zero for COUNT(*))
	preds       []Pred   // Col as written
	predCols    []genCol
	group       []genCol
	order       []OrderKey // Col is a result label
	limit       int
}

// sql renders the query.
func (g *genQuery) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var items []string
	if g.star {
		items = append(items, "*")
	}
	for _, c := range g.cols {
		items = append(items, c.written)
	}
	for _, a := range g.aggs {
		items = append(items, a.Fn.String()+"("+a.Col+")")
	}
	b.WriteString(strings.Join(items, ", ") + " FROM " + g.from)
	if g.right != "" {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", g.right, g.on[0].written, g.on[1].written)
	}
	for i, p := range g.preds {
		kw := " AND "
		if i == 0 {
			kw = " WHERE "
		}
		b.WriteString(kw + p.Col + " " + p.Op.String() + " " + sqlLiteral(p.Val))
	}
	for i, c := range g.group {
		kw := ", "
		if i == 0 {
			kw = " GROUP BY "
		}
		b.WriteString(kw + c.written)
	}
	for i, k := range g.order {
		kw := ", "
		if i == 0 {
			kw = " ORDER BY "
		}
		dir := " ASC"
		if k.Desc {
			dir = " DESC"
		}
		b.WriteString(kw + k.Col + dir)
	}
	if g.limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", g.limit)
	}
	return b.String()
}

// sqlLiteral renders a value so it parses back as the same typed value: a
// FLOAT always in exponent form (2.0 would lex as an INT).
func sqlLiteral(v Value) string {
	switch v.Type() {
	case Float:
		return strconv.FormatFloat(v.Float(), 'e', -1, 64)
	case String:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	default:
		return v.String()
	}
}

// genQueryFor draws a query over the fixture's tables: a plain or starred
// projection, a grouped or global aggregate, up to three predicates whose
// literal mostly has the column's type (sometimes the other numeric type,
// sometimes any type), an optional JOIN, ORDER BY and LIMIT.
func genQueryFor(rng *rand.Rand, ref map[string]*refTable) *genQuery {
	g := &genQuery{from: RunsTableName}
	if rng.Intn(4) == 0 {
		g.from = NodesTableName
	}
	var avail []genCol
	addCols := func(table string, qualify bool) {
		for _, c := range ref[table].schema {
			gc := genCol{written: c.Name, resolved: c.Name, typ: c.Type}
			if qualify {
				gc.resolved = table + "." + c.Name
				if rng.Intn(2) == 0 {
					gc.written = gc.resolved
				}
			}
			avail = append(avail, gc)
		}
	}
	if g.from == RunsTableName && rng.Intn(3) == 0 {
		g.right = NodesTableName
		addCols(RunsTableName, true)
		nRuns := len(avail)
		addCols(NodesTableName, true)
		// Mostly comparable ON pairs: node = name, year = cpus (INT),
		// day = speed (INT with FLOAT), walltime = speed; sometimes any.
		l, r := avail[rng.Intn(nRuns)], avail[nRuns+rng.Intn(len(avail)-nRuns)]
		if rng.Intn(4) != 0 {
			pairs := [][2]string{{"node", "name"}, {"year", "cpus"}, {"day", "speed"}, {"walltime", "speed"}, {"products", "cpus"}}
			p := pairs[rng.Intn(len(pairs))]
			for _, c := range avail {
				switch c.resolved {
				case "runs." + p[0]:
					l = c
				case "nodes." + p[1]:
					r = c
				}
			}
		}
		g.on = []genCol{l, r}
		if rng.Intn(2) == 0 {
			g.on[0], g.on[1] = r, l
		}
	} else {
		addCols(g.from, false)
	}
	pick := func() genCol { return avail[rng.Intn(len(avail))] }

	for n := rng.Intn(4); n > 0; n-- {
		c := pick()
		lit := c.typ
		switch rng.Intn(5) {
		case 0:
			lit = Type(rng.Intn(4))
		case 1:
			if c.typ == Int {
				lit = Float
			} else if c.typ == Float {
				lit = Int
			}
		}
		g.preds = append(g.preds, Pred{Col: c.written, Op: Op(rng.Intn(6)), Val: genValue(rng, lit)})
		g.predCols = append(g.predCols, c)
	}

	var labels []string // result labels, the ORDER BY candidates
	switch rng.Intn(3) {
	case 0: // projection
		if rng.Intn(3) == 0 {
			g.star = true
			for _, c := range avail {
				labels = append(labels, c.resolved)
			}
		} else {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				c := pick()
				g.cols = append(g.cols, c)
				labels = append(labels, c.resolved)
			}
		}
	default: // aggregate, grouped or global
		if rng.Intn(3) != 0 {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				g.group = append(g.group, pick())
			}
			for _, c := range g.group {
				if rng.Intn(2) == 0 {
					g.cols = append(g.cols, c)
					labels = append(labels, c.resolved)
				}
			}
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			fn := AggFn(rng.Intn(5))
			if fn == AggCount && rng.Intn(2) == 0 {
				g.aggs = append(g.aggs, Agg{Fn: fn, Col: "*"})
				g.aggCols = append(g.aggCols, genCol{})
				labels = append(labels, "count(*)")
				continue
			}
			c := pick()
			g.aggs = append(g.aggs, Agg{Fn: fn, Col: c.written})
			g.aggCols = append(g.aggCols, c)
			labels = append(labels, Agg{Fn: fn, Col: c.resolved}.Label())
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		g.order = append(g.order, OrderKey{Col: labels[rng.Intn(len(labels))], Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(3) == 0 {
		g.limit = 1 + rng.Intn(4)
	}
	// Sometimes a grouped aggregate selects and groups every column in
	// schema order, the list * stands for. Drawn last, so the rest of
	// the query is the one the seed always drew.
	if len(g.group) > 0 && rng.Intn(6) == 0 {
		g.group, g.cols = avail, avail
	}
	return g
}

// refRun evaluates the query the plain way: the join as nested loops,
// each predicate by Compare on each row in turn (so a type error surfaces
// exactly when a row reaches it), groups of identical keys in first-seen
// order, then a stable sort and the limit.
func refRun(ref map[string]*refTable, g *genQuery) ([]string, [][]Value, error) {
	src := ref[g.from]
	var names []string
	if g.right == "" {
		for _, c := range src.schema {
			names = append(names, c.Name)
		}
	} else {
		left, right := src, ref[g.right]
		for _, c := range left.schema {
			names = append(names, g.from+"."+c.Name)
		}
		for _, c := range right.schema {
			names = append(names, g.right+"."+c.Name)
		}
		lc, rc := g.on[0], g.on[1]
		if strings.HasPrefix(rc.resolved, g.from+".") {
			lc, rc = rc, lc
		}
		li, ri := slices.Index(names, lc.resolved), slices.Index(names, rc.resolved)-len(left.schema)
		lt, rt := left.schema[li].Type, right.schema[ri].Type
		if lt != rt && !(lt != String && lt != Bool && rt != String && rt != Bool) {
			return nil, nil, fmt.Errorf("join of %s with %s", lt, rt)
		}
		joined := &refTable{}
		for _, l := range left.rows {
			for _, r := range right.rows {
				if c, _ := Compare(l[li], r[ri]); c == 0 {
					joined.rows = append(joined.rows, append(slices.Clip(l), r...))
				}
			}
		}
		src = joined
	}
	at := func(c genCol) int { return slices.Index(names, c.resolved) }

	var rows [][]Value
	for _, row := range src.rows {
		keep := true
		for i, p := range g.preds {
			c, err := Compare(row[at(g.predCols[i])], p.Val)
			if err != nil {
				return nil, nil, err
			}
			if keep = refOp(p.Op, c); !keep {
				break
			}
		}
		if keep {
			rows = append(rows, row)
		}
	}

	var cols []string
	var out [][]Value
	if len(g.aggs) == 0 && len(g.group) == 0 {
		sel := g.cols
		if g.star {
			sel = nil
			for _, n := range names {
				sel = append(sel, genCol{resolved: n})
			}
		}
		for _, c := range sel {
			cols = append(cols, c.resolved)
		}
		for _, row := range rows {
			var o []Value
			for _, c := range sel {
				o = append(o, row[at(c)])
			}
			out = append(out, o)
		}
	} else {
		for _, c := range g.cols {
			cols = append(cols, c.resolved)
		}
		for i, a := range g.aggs {
			if a.Col != "*" {
				a.Col = g.aggCols[i].resolved
			}
			cols = append(cols, a.Label())
		}
		var groups [][][]Value // each group's rows, first-seen order
		for _, row := range rows {
			gi := slices.IndexFunc(groups, func(grp [][]Value) bool {
				for _, c := range g.group {
					if !sameKey(grp[0][at(c)], row[at(c)]) {
						return false
					}
				}
				return true
			})
			if gi < 0 {
				groups = append(groups, nil)
				gi = len(groups) - 1
			}
			groups[gi] = append(groups[gi], row)
		}
		if len(g.group) == 0 && len(groups) == 0 {
			groups = append(groups, nil) // a global aggregate over no rows
		}
		for _, grp := range groups {
			var o []Value
			for _, c := range g.cols {
				o = append(o, grp[0][at(c)])
			}
			for i, a := range g.aggs {
				v, err := refAgg(a, grp, at(g.aggCols[i]))
				if err != nil {
					return nil, nil, err
				}
				o = append(o, v)
			}
			out = append(out, o)
		}
	}

	var sortErr error
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range g.order {
			ci := slices.Index(cols, k.Col)
			c, err := Compare(out[i][ci], out[j][ci])
			if err != nil {
				sortErr = err
			}
			if c != 0 {
				return c < 0 != k.Desc
			}
		}
		return false
	})
	if g.limit > 0 && len(out) > g.limit {
		out = out[:g.limit]
	}
	return cols, out, sortErr
}

func refOp(op Op, c int) bool {
	return [...]bool{OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0}[op]
}

// refAgg folds one aggregate over a group's rows: COUNT counts, AVG and a
// SUM with a FLOAT add as float64 in row order, a SUM of INTs adds exactly
// and is an error outside int64's range, MIN and MAX keep the first of
// equal values; over no rows, SUM and AVG are FLOAT 0 and MIN and MAX
// INT 0.
func refAgg(a Agg, rows [][]Value, ci int) (Value, error) {
	switch a.Fn {
	case AggCount:
		return IntVal(int64(len(rows))), nil
	case AggSum, AggAvg:
		sum, ints, exact := 0.0, len(rows) > 0, new(big.Int)
		for _, r := range rows {
			if !r[ci].IsNumeric() {
				return Value{}, fmt.Errorf("%s over %s", a.Fn, r[ci].Type())
			}
			sum += r[ci].Float()
			ints = ints && r[ci].Type() == Int
			exact.Add(exact, big.NewInt(r[ci].Int()))
		}
		switch {
		case a.Fn == AggAvg && len(rows) == 0:
			return FloatVal(0), nil
		case a.Fn == AggAvg:
			return FloatVal(sum / float64(len(rows))), nil
		case ints && !exact.IsInt64():
			return Value{}, fmt.Errorf("SUM of INTs %v leaves int64", exact)
		case ints:
			return IntVal(exact.Int64()), nil
		}
		return FloatVal(sum), nil
	default:
		if len(rows) == 0 {
			return IntVal(0), nil
		}
		best := rows[0][ci]
		for _, r := range rows[1:] {
			if c, _ := Compare(r[ci], best); a.Fn == AggMin && c < 0 || a.Fn == AggMax && c > 0 {
				best = r[ci]
			}
		}
		return best, nil
	}
}

// sameKey is GROUP BY's identity, the hash index's: the same type and the
// same value, −0 equal to +0, so the two share a group.
func sameKey(a, b Value) bool {
	if a.Type() == Float && b.Type() == Float && a.Float() == b.Float() {
		return true
	}
	return a.Type() == b.Type() && a.String() == b.String()
}

func renderRow(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%s:%s|", v.Type(), v)
	}
	return b.String()
}

// checkAgainstReference builds seed's fixture unindexed and indexed, draws
// one query over it, and compares each engine's answer with the
// reference's: the same columns, and the same rows in order under ORDER
// BY and as a multiset otherwise — or an error from both.
func checkAgainstReference(t *testing.T, seed int64) {
	plain, ref := genFixture(t, seed, false)
	indexed, _ := genFixture(t, seed, true)
	g := genQueryFor(rand.New(rand.NewSource(seed+1)), ref)
	sql := g.sql()
	wantCols, wantRows, wantErr := refRun(ref, g)
	want := make([]string, len(wantRows))
	for i, r := range wantRows {
		want[i] = renderRow(r)
	}
	if len(g.order) == 0 {
		sort.Strings(want)
	}
	for _, db := range []*DB{plain, indexed} {
		res, err := db.Query(sql)
		which := fmt.Sprintf("seed %d, indexed %v: %s\n", seed, db == indexed, sql)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%sengine error %v, reference error %v", which, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !slices.Equal(res.Columns, wantCols) {
			t.Fatalf("%scolumns %v, reference %v", which, res.Columns, wantCols)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = renderRow(r)
		}
		if len(g.order) == 0 {
			sort.Strings(got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%sengine    %q\nreference %q", which, got, want)
		}
	}
}

func TestQueryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		checkAgainstReference(t, seed)
	}
}

// FuzzQueryMatchesReference searches seeds for a generated query on which
// the engine and the reference disagree. Seeds 603 and 2476 found the two
// disagreements of the boxed-row engine: an index probe that skipped the
// row a scan failed a type error on, and INTs above 2^53 compared as
// float64s by a scan but exactly by an index probe. Seeds 12, 165, 37
// and 6032 found three in the columnar engine: a select list naming
// every column read as *, SUM over INTs added in float64 (inexact above
// 2^53, wrapped past int64), and −0 and +0 grouped apart.
func FuzzQueryMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 12, 37, 42, 165, 603, 2476, 6032, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkAgainstReference)
}

// referenceTypedTable is the reflection codec TypedTable had before its
// fields were resolved to offsets, kept as the codec's oracle: per cell it
// walks FieldByIndex and calls a boxed getter or setter. addFields,
// referenceColumnOf, Insert and Read are that codec's code, with the
// names changed and the BOOL setter reading the payload directly.
type referenceTypedTable[T any] struct {
	name    string
	schema  Schema
	fields  []referenceField // fields[i] backs schema[i]
	indexes []string
}

// referenceField locates one column's struct field and converts it.
type referenceField struct {
	path []int // field index through embedded structs
	get  func(f reflect.Value) (Value, error)
	set  func(f reflect.Value, v Value) error
}

func newReferenceTypedTable[T any](name string, indexes ...string) *referenceTypedTable[T] {
	tt := &referenceTypedTable[T]{name: name, indexes: indexes}
	tt.addFields(reflect.TypeFor[T](), nil)
	return tt
}

func (tt *referenceTypedTable[T]) addFields(rt reflect.Type, parent []int) {
	for i := 0; rt.Kind() == reflect.Struct && i < rt.NumField(); i++ {
		f := rt.Field(i)
		path := append(parent[:len(parent):len(parent)], i)
		col, tagged := f.Tag.Lookup("db")
		if !tagged {
			if f.Anonymous {
				tt.addFields(f.Type, path)
			}
			continue
		}
		typ, field := referenceColumnOf(f.Type)
		if field.get == nil || !f.IsExported() {
			panic(fmt.Sprintf("statsdb: table %s: column %q (field %s %s) cannot be stored", tt.name, col, f.Name, f.Type))
		}
		field.path = path
		tt.schema = append(tt.schema, Column{Name: col, Type: typ})
		tt.fields = append(tt.fields, field)
	}
}

// referenceColumnOf maps a field type to its column type and conversions
// (none when no column can store it).
func referenceColumnOf(t reflect.Type) (Type, referenceField) {
	ptr, k := reflect.PointerTo(t), t.Kind()
	switch {
	case ptr.Implements(reflect.TypeFor[encoding.TextMarshaler]()) &&
		ptr.Implements(reflect.TypeFor[encoding.TextUnmarshaler]()):
		return String, referenceField{
			get: func(f reflect.Value) (Value, error) {
				b, err := f.Addr().Interface().(encoding.TextMarshaler).MarshalText()
				return StringVal(string(b)), err
			},
			set: func(f reflect.Value, v Value) error {
				return f.Addr().Interface().(encoding.TextUnmarshaler).UnmarshalText([]byte(v.Str()))
			},
		}
	case k == reflect.Int || k == reflect.Int64:
		return Int, referenceField{
			get: func(f reflect.Value) (Value, error) { return IntVal(f.Int()), nil },
			set: func(f reflect.Value, v Value) error { f.SetInt(v.Int()); return nil },
		}
	case k == reflect.Float64:
		return Float, referenceField{
			get: func(f reflect.Value) (Value, error) {
				if x := f.Float(); !math.IsNaN(x) && !math.IsInf(x, 0) {
					return FloatVal(x), nil
				}
				return FloatVal(0), nil
			},
			set: func(f reflect.Value, v Value) error { f.SetFloat(v.Float()); return nil },
		}
	case k == reflect.String:
		return String, referenceField{
			get: func(f reflect.Value) (Value, error) { return StringVal(f.String()), nil },
			set: func(f reflect.Value, v Value) error { f.SetString(v.Str()); return nil },
		}
	case k == reflect.Bool:
		return Bool, referenceField{
			get: func(f reflect.Value) (Value, error) { return BoolVal(f.Bool()), nil },
			set: func(f reflect.Value, v Value) error { f.SetBool(v.b); return nil },
		}
	case k == reflect.Array && (t.Elem().Kind() == reflect.Int || t.Elem().Kind() == reflect.Int64):
		return String, referenceField{
			get: func(f reflect.Value) (Value, error) {
				parts := make([]string, f.Len())
				for j := range parts {
					parts[j] = strconv.FormatInt(f.Index(j).Int(), 10)
				}
				return StringVal(strings.Join(parts, ",")), nil
			},
			set: func(f reflect.Value, v Value) error { // malformed or missing elements read as 0
				for j, part := range strings.Split(v.Str(), ",") {
					if x, err := strconv.ParseInt(part, 10, 64); err == nil && j < f.Len() {
						f.Index(j).SetInt(x)
					}
				}
				return nil
			},
		}
	}
	return 0, referenceField{}
}

func (tt *referenceTypedTable[T]) Insert(db *DB, rows ...T) (*Table, error) {
	t, err := db.declare(tt.name, tt.schema, tt.indexes...)
	if err != nil {
		return nil, err
	}
	err = t.appendRows(len(rows), func(row []Value, r int) ([]Value, error) {
		rv := reflect.ValueOf(&rows[r]).Elem()
		for i, f := range tt.fields {
			v, err := f.get(rv.FieldByIndex(f.path))
			if err != nil {
				return nil, fmt.Errorf("statsdb: table %s column %q: %w", tt.name, tt.schema[i].Name, err)
			}
			row = append(row, v)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (tt *referenceTypedTable[T]) Read(db *DB) ([]T, error) {
	t := db.Table(tt.name)
	if t == nil {
		return nil, nil
	}
	if err := t.checkLayout(tt.schema); err != nil || t.n == 0 {
		return nil, err
	}
	out := make([]T, t.n)
	for r := range out {
		rv := reflect.ValueOf(&out[r]).Elem()
		for i, f := range tt.fields {
			if err := f.set(rv.FieldByIndex(f.path), t.cols[i].value(r)); err != nil {
				return nil, fmt.Errorf("statsdb: table %s row %d column %q: %w", tt.name, r, tt.schema[i].Name, err)
			}
		}
	}
	return out, nil
}
