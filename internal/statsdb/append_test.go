package statsdb

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAppendMatchesInsert holds the batch path to Insert over seeded
// random schemas and rows: a table loaded batch by batch must equal its
// twin loaded row by row, and a batch with a bad value must fail and
// leave its table as it was.
func TestAppendMatchesInsert(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := checkAppend(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzAppendMatchesInsert runs TestAppendMatchesInsert's comparison on
// schemas, rows and batches drawn from the fuzzer's bytes.
func FuzzAppendMatchesInsert(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add(bytes.Repeat([]byte{2, 7, 1, 0, 5, 3, 9}, 40))
	f.Add(bytes.Repeat([]byte{4, 2, 2, 2, 1, 0, 0, 6}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkAppend(data); err != nil {
			t.Fatal(err)
		}
	})
}

// draws reads small numbers from bytes; past their end every draw is 0.
type draws []byte

func (d *draws) n(k int) int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b) % k
}

// checkAppend builds twin tables of a drawn schema and drawn indexes,
// loads drawn batches into one by Insert and into the other by
// appendRows, and compares them after every batch. A batch holding a bad
// value (a NaN, a value of the wrong type, or a fill error) goes only to
// the batch twin, which must refuse it whole.
func checkAppend(data []byte) error {
	d := draws(data)
	var schema Schema
	for i := 1 + d.n(5); i > 0; i-- {
		schema = append(schema, Column{Name: fmt.Sprintf("c%d", len(schema)), Type: Type(d.n(4))})
	}
	dbA, dbB := NewDB(), NewDB()
	a, err := dbA.CreateTable("t", schema)
	if err != nil {
		return err
	}
	b, _ := dbB.CreateTable("t", schema)
	index := func() {
		if col := schema[d.n(len(schema))].Name; d.n(2) == 0 {
			_ = a.CreateIndex(col)
			_ = b.CreateIndex(col)
		}
	}
	index()
	index()
	fresh := 0 // high-cardinality strings: a new value each draw
	value := func(typ Type) Value {
		switch typ {
		case Int:
			if d.n(4) == 0 {
				return IntVal(int64(d.n(256)) << 40)
			}
			return IntVal(int64(d.n(7)) - 3)
		case Float:
			return FloatVal([]float64{0, math.Copysign(0, -1), 1.5, -2, 3, math.Inf(1), math.Inf(-1), 1e-300}[d.n(8)])
		case String:
			if d.n(3) == 0 {
				fresh++
				return StringVal("s" + strconv.Itoa(fresh))
			}
			return StringVal([]string{"", "a", "b", "a", "it's", "ä"}[d.n(6)])
		}
		return BoolVal(d.n(2) == 1)
	}
	for batch := 1 + d.n(6); batch > 0; batch-- {
		rows := make([][]Value, d.n(40))
		for r := range rows {
			for _, c := range schema {
				rows[r] = append(rows[r], value(c.Type))
			}
		}
		bad := len(rows) > 0 && d.n(4) == 0
		if bad {
			r, ci := d.n(len(rows)), d.n(len(schema))
			switch {
			case schema[ci].Type == Float && d.n(2) == 0:
				rows[r][ci] = FloatVal(math.NaN())
			case d.n(2) == 0:
				rows[r][ci] = value(Type((int(schema[ci].Type) + 1 + d.n(3)) % 4))
			default:
				rows[r] = nil // fill fails here
			}
		}
		before := cloneTable(b)
		err := b.appendRows(len(rows), func(row []Value, i int) ([]Value, error) {
			if rows[i] == nil {
				return nil, errors.New("fill failed")
			}
			return append(row, rows[i]...), nil
		})
		if bad {
			if err == nil {
				return fmt.Errorf("batch with a bad value was accepted")
			}
			if diff := diffTables(b, before); diff != "" {
				return fmt.Errorf("failed batch changed the table: %s", diff)
			}
			continue
		}
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := a.Insert(row); err != nil {
				return err
			}
		}
		if diff := diffTables(b, a); diff != "" {
			return fmt.Errorf("batch load differs from row-by-row inserts: %s", diff)
		}
		if diff := diffQueries(dbB, dbA, a); diff != "" {
			return fmt.Errorf("batch load answers differently: %s", diff)
		}
		index()
	}
	return nil
}

// cloneTable deep-copies a table: vectors, dictionaries and indexes.
func cloneTable(t *Table) *Table {
	c := &Table{name: t.name, schema: slices.Clone(t.schema), n: t.n, cols: slices.Clone(t.cols)}
	for i := range c.cols {
		col := &c.cols[i]
		col.ints, col.flts, col.codes = slices.Clone(col.ints), slices.Clone(col.flts), slices.Clone(col.codes)
		col.dict, col.code = slices.Clone(col.dict), maps.Clone(col.code)
		if x := col.index; x != nil {
			col.index = &hashIndex{ids: maps.Clone(x.ids)}
			for _, l := range x.lists {
				col.index.lists = append(col.index.lists, slices.Clone(l))
			}
		}
	}
	return c
}

// diffTables describes the first difference between two tables, or
// returns "": the length, each vector's length, every row bit for bit,
// each dictionary in order and its reverse map, the indexed columns, and
// the rows each index returns for every value the column holds.
func diffTables(got, want *Table) string {
	if got.Len() != want.Len() {
		return fmt.Sprintf("Len %d, want %d", got.Len(), want.Len())
	}
	for r := 0; r < got.Len(); r++ {
		g, w := got.Row(r), want.Row(r)
		for ci := range g {
			if g[ci].t != w[ci].t || g[ci].i != w[ci].i || math.Float64bits(g[ci].f) != math.Float64bits(w[ci].f) ||
				g[ci].s != w[ci].s || g[ci].b != w[ci].b {
				return fmt.Sprintf("row %d column %d is %#v, want %#v", r, ci, g[ci], w[ci])
			}
		}
	}
	for ci := range got.cols {
		g, w := &got.cols[ci], &want.cols[ci]
		if n := max(len(g.ints), len(g.flts), len(g.codes)); n != got.Len() {
			return fmt.Sprintf("column %d holds %d values for %d rows", ci, n, got.Len())
		}
		if !slices.Equal(g.dict, w.dict) || !maps.Equal(g.code, w.code) {
			return fmt.Sprintf("column %d dictionary %q, want %q", ci, g.dict, w.dict)
		}
		if g.index == nil {
			continue
		}
		for r := 0; r < got.Len(); r++ {
			v := got.cols[ci].value(r)
			if gr, wr := got.lookupRows(nil, ci, v), want.lookupRows(nil, ci, v); !slices.Equal(gr, wr) {
				return fmt.Sprintf("column %d index holds %v for %v, want %v", ci, gr, v, wr)
			}
		}
	}
	if g, w := got.IndexedColumns(), want.IndexedColumns(); !slices.Equal(g, w) {
		return fmt.Sprintf("indexed columns %v, want %v", g, w)
	}
	return ""
}

// diffQueries compares a few SELECT answers over table t of two
// databases: a count, a GROUP BY on each column, and an equality probe
// on each column for its first row's value.
func diffQueries(got, want *DB, t *Table) string {
	queries := []string{"SELECT COUNT(*) FROM t"}
	for ci, c := range t.schema {
		queries = append(queries, fmt.Sprintf("SELECT %s, COUNT(*) FROM t GROUP BY %s ORDER BY %s", c.Name, c.Name, c.Name))
		if t.Len() == 0 {
			continue
		}
		var lit string
		switch v := t.cols[ci].value(0); v.t {
		case Float:
			if math.IsInf(v.f, 0) {
				continue // no literal spells an infinity
			}
			lit = strconv.FormatFloat(v.f, 'f', -1, 64)
		case String:
			lit = "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
		default:
			lit = v.String()
		}
		queries = append(queries, fmt.Sprintf("SELECT * FROM t WHERE %s = %s", c.Name, lit))
	}
	for _, q := range queries {
		g, gerr := got.Query(q)
		w, werr := want.Query(q)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("%s: %v %v, want %v %v", q, g, gerr, w, werr)
		}
	}
	return ""
}
