package statsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Column declares one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of a column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table stores its rows column by column, one typed vector per column,
// with optional hash indexes. Row ids are positions in the vectors and
// stay stable across updates. Create with DB.CreateTable or NewTable.
type Table struct {
	name   string
	schema Schema
	cols   []column // cols[i] holds schema[i]
	n      int
}

// column is one column's values: INTs as int64s, FLOATs as float64s,
// STRINGs as codes into a dictionary that holds each distinct value once
// (cloned, so no value pins the text it was cut from), BOOLs as codes 0
// and 1. The vectors, the dictionary and the index allocate on first use.
type column struct {
	typ   Type
	ints  []int64
	flts  []float64
	codes []uint32
	dict  []string          // STRING: code → value
	code  map[string]uint32 // STRING: value → code
	index *hashIndex        // nil when unindexed
}

// value boxes row r's value.
func (c *column) value(r int) Value {
	switch c.typ {
	case Int:
		return IntVal(c.ints[r])
	case Float:
		return FloatVal(c.flts[r])
	case String:
		return StringVal(c.dict[c.codes[r]])
	default:
		return BoolVal(c.codes[r] == 1)
	}
}

// strAt, intAt and floatAt read row r of a STRING, INT and FLOAT column
// without boxing it.
func (c *column) strAt(r int) string    { return c.dict[c.codes[r]] }
func (c *column) intAt(r int) int64     { return c.ints[r] }
func (c *column) floatAt(r int) float64 { return c.flts[r] }

// key is row r's value as a hash key: a STRING's or BOOL's code, else
// valueKey, read without boxing the value.
func (c *column) key(r int) uint64 {
	switch c.typ {
	case Int:
		return uint64(c.ints[r])
	case Float:
		return valueKey(FloatVal(c.flts[r]))
	}
	return uint64(c.codes[r])
}

// valueKey is a non-STRING value as a hash key: an INT's bits, a FLOAT's
// bits with −0 read as +0 (the same value to Compare), a BOOL's code.
func valueKey(v Value) uint64 {
	switch {
	case v.t == Int:
		return uint64(v.i)
	case v.t == Float && v.f != 0:
		return math.Float64bits(v.f)
	}
	return uint64(boolCode(v.b))
}

// keyOf is the key v hashes to in the column; false when no row can hold
// it (a value of another type, a string the dictionary lacks).
func (c *column) keyOf(v Value) (uint64, bool) {
	if v.t != c.typ {
		return 0, false
	}
	if c.typ == String {
		k, ok := c.code[v.s]
		return uint64(k), ok
	}
	return valueKey(v), true
}

func boolCode(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// set stores v, of the column's type, as row r, appending when r is the
// vector's length, and keeps the index in step.
func (c *column) set(r int, v Value) {
	appending := r == max(len(c.ints), len(c.flts), len(c.codes))
	var old uint64
	if c.index != nil && !appending {
		old = c.key(r)
	}
	switch c.typ {
	case Int:
		c.ints = put(c.ints, r, v.i)
	case Float:
		c.flts = put(c.flts, r, v.f)
	case String:
		c.codes = put(c.codes, r, c.intern(v.s))
	default:
		c.codes = put(c.codes, r, boolCode(v.b))
	}
	if c.index == nil {
		return
	}
	if k := c.key(r); appending {
		c.index.add(k, int32(r))
	} else if k != old {
		c.index.remove(old, int32(r))
		c.index.add(k, int32(r))
	}
}

// push appends v, of the column's type, leaving the index to indexRows.
// A string that repeats the column's previous value takes that row's
// code without a dictionary lookup.
func (c *column) push(v Value) {
	switch c.typ {
	case Int:
		c.ints = append(c.ints, v.i)
	case Float:
		c.flts = append(c.flts, v.f)
	case String:
		if n := len(c.codes); n > 0 && c.dict[c.codes[n-1]] == v.s {
			c.codes = append(c.codes, c.codes[n-1])
		} else {
			c.codes = append(c.codes, c.intern(v.s))
		}
	default:
		c.codes = append(c.codes, boolCode(v.b))
	}
}

// grow makes room for n more rows in the column's vector.
func (c *column) grow(n int) {
	switch c.typ {
	case Int:
		c.ints = slices.Grow(c.ints, n)
	case Float:
		c.flts = slices.Grow(c.flts, n)
	default:
		c.codes = slices.Grow(c.codes, n)
	}
}

// truncate drops the rows from r on and the dictionary entries from code
// d on: what a failed batch appended, before any index saw it.
func (c *column) truncate(r, d int) {
	switch c.typ {
	case Int:
		c.ints = c.ints[:r]
	case Float:
		c.flts = c.flts[:r]
	default:
		c.codes = c.codes[:r]
	}
	for _, s := range c.dict[d:] {
		delete(c.code, s)
	}
	clear(c.dict[d:])
	c.dict = c.dict[:d]
}

// indexRows adds rows lo..hi-1, the last rows appended, to the index. A
// STRING column buckets them by code, codes in first-appearance order and
// rows ascending in each (a counting sort over the batch), so each
// distinct code costs one index write. Any other column adds row by row,
// into a map sized for the batch when the index is empty.
func (c *column) indexRows(lo, hi int) {
	x := c.index
	if c.typ != String {
		if len(x.ids) == 0 {
			x.ids = make(map[uint64]int32, hi-lo)
		}
		for r := lo; r < hi; r++ {
			x.add(c.key(r), int32(r))
		}
		return
	}
	codes := c.codes[lo:hi]
	slot := make(map[uint32]int32)  // code → its bucket
	var keys []uint32               // bucket → code
	var ends []int32                // bucket → its row count, then its end in rows
	at := make([]int32, len(codes)) // batch row → its bucket
	for i, k := range codes {
		if i > 0 && k == codes[i-1] {
			at[i] = at[i-1]
		} else if b, ok := slot[k]; ok {
			at[i] = b
		} else {
			at[i] = int32(len(keys))
			slot[k] = at[i]
			keys, ends = append(keys, k), append(ends, 0)
		}
		ends[at[i]]++
	}
	for b := 1; b < len(ends); b++ {
		ends[b] += ends[b-1]
	}
	rows := make([]int32, len(codes))
	for i := len(codes) - 1; i >= 0; i-- { // backward, so each bucket ascends
		ends[at[i]]--
		rows[ends[at[i]]] = int32(lo + i)
	}
	for b, k := range keys { // ends[b] is now bucket b's start
		end := int32(len(rows))
		if b+1 < len(keys) {
			end = ends[b+1]
		}
		x.addRows(uint64(k), rows[ends[b]:end:end])
	}
}

func put[T any](vec []T, r int, x T) []T {
	if r == len(vec) {
		return append(vec, x)
	}
	vec[r] = x
	return vec
}

// intern returns s's dictionary code, adding a copy of s when it is new.
func (c *column) intern(s string) uint32 {
	k, ok := c.code[s]
	if !ok {
		if c.code == nil {
			c.code = make(map[string]uint32)
		}
		k, s = uint32(len(c.dict)), strings.Clone(s)
		c.code[s], c.dict = k, append(c.dict, s)
	}
	return k
}

// hashIndex maps a column's keys to the rows holding them: a key held by
// one row maps to that row, so a unique column allocates no slice per
// key; a key held by more maps to ^i for the rows in lists[i].
type hashIndex struct {
	ids   map[uint64]int32
	lists [][]int32
}

func (x *hashIndex) add(k uint64, r int32) {
	if x.ids == nil {
		x.ids = make(map[uint64]int32)
	}
	switch id, ok := x.ids[k]; {
	case !ok:
		x.ids[k] = r
	case id >= 0:
		x.ids[k] = ^int32(len(x.lists))
		x.lists = append(x.lists, []int32{id, r})
	default:
		x.lists[^id] = append(x.lists[^id], r)
	}
}

// addRows adds rows, ascending and above every row k already holds, in
// one write. A list it starts is rows itself, so rows must not be shared.
func (x *hashIndex) addRows(k uint64, rows []int32) {
	if x.ids == nil {
		x.ids = make(map[uint64]int32)
	}
	switch id, ok := x.ids[k]; {
	case !ok && len(rows) == 1:
		x.ids[k] = rows[0]
	case !ok:
		x.ids[k] = ^int32(len(x.lists))
		x.lists = append(x.lists, rows)
	case id >= 0:
		x.ids[k] = ^int32(len(x.lists))
		x.lists = append(x.lists, append([]int32{id}, rows...))
	default:
		x.lists[^id] = append(x.lists[^id], rows...)
	}
}

func (x *hashIndex) remove(k uint64, r int32) {
	if id := x.ids[k]; id < 0 {
		l := x.lists[^id]
		i := slices.Index(l, r)
		if x.lists[^id] = slices.Delete(l, i, i+1); len(l) > 1 {
			return
		}
	}
	delete(x.ids, k)
}

// rows appends the rows holding k to dst.
func (x *hashIndex) rows(dst []int32, k uint64) []int32 {
	switch id, ok := x.ids[k]; {
	case !ok:
		return dst
	case id >= 0:
		return append(dst, id)
	default:
		return append(dst, x.lists[^id]...)
	}
}

// NewTable creates a table. Duplicate or empty column names are errors.
func NewTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("statsdb: table needs a name")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("statsdb: table %s needs at least one column", name)
	}
	seen := make(map[string]bool, len(schema))
	cols := make([]column, len(schema))
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("statsdb: table %s has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("statsdb: table %s has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
		cols[i].typ = c.Type
	}
	return &Table{name: name, schema: append(Schema(nil), schema...), cols: cols}, nil
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return append(Schema(nil), t.schema...) }

// checkLayout is an error unless the table is laid out as schema: the
// same columns, of the same types, in the same order.
func (t *Table) checkLayout(schema Schema) error {
	if !slices.Equal(t.schema, schema) {
		return fmt.Errorf("statsdb: table %s is laid out as %v, not as its declaration %v", t.name, t.schema, schema)
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// CreateIndex builds a hash index on a column. Indexing an indexed column
// again is a no-op.
func (t *Table) CreateIndex(column string) error {
	ci := t.schema.Index(column)
	if ci < 0 {
		return fmt.Errorf("statsdb: table %s has no column %q", t.name, column)
	}
	c := &t.cols[ci]
	if c.index != nil {
		return nil
	}
	c.index = &hashIndex{}
	for r := 0; r < t.n; r++ {
		c.index.add(c.key(r), int32(r))
	}
	return nil
}

// IndexedColumns returns the indexed column names, sorted.
func (t *Table) IndexedColumns() []string {
	out := []string{}
	for i, c := range t.schema {
		if t.cols[i].index != nil {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out
}

// check enforces a row's arity and column types.
func (t *Table) check(row []Value) error {
	if len(row) != len(t.schema) {
		return fmt.Errorf("statsdb: table %s expects %d values, got %d", t.name, len(t.schema), len(row))
	}
	for i, v := range row {
		if v.Type() != t.schema[i].Type {
			return fmt.Errorf("statsdb: table %s column %q expects %s, got %s",
				t.name, t.schema[i].Name, t.schema[i].Type, v.Type())
		}
		if err := checkValue(v); err != nil {
			return fmt.Errorf("statsdb: table %s column %q: %w", t.name, t.schema[i].Name, err)
		}
	}
	return nil
}

// Insert appends a row, enforcing arity and column types, and maintains
// all indexes.
func (t *Table) Insert(row []Value) error {
	if err := t.check(row); err != nil {
		return err
	}
	for i, v := range row {
		t.cols[i].set(t.n, v)
	}
	t.n++
	return nil
}

// appendRows appends n rows and leaves the table as n calls of Insert
// would, at batch cost: fill appends row i to an empty buffer, each row
// is checked as Insert checks it, strings intern in row order, each
// vector grows once, and each index takes the batch's rows once they are
// all in. On an error from fill or a check, the table is left as it was
// before the call.
func (t *Table) appendRows(n int, fill func(row []Value, i int) ([]Value, error)) error {
	base := t.n
	dicts := make([]int, len(t.cols)) // each dictionary's length before the batch
	for ci := range t.cols {
		t.cols[ci].grow(n)
		dicts[ci] = len(t.cols[ci].dict)
	}
	row := make([]Value, 0, len(t.cols))
	for i := 0; i < n; i++ {
		var err error
		if row, err = fill(row[:0], i); err == nil {
			err = t.check(row)
		}
		if err != nil {
			for ci := range t.cols {
				t.cols[ci].truncate(base, dicts[ci])
			}
			return err
		}
		for ci, v := range row {
			t.cols[ci].push(v)
		}
	}
	t.n += n
	for ci := range t.cols {
		if t.cols[ci].index != nil {
			t.cols[ci].indexRows(base, t.n)
		}
	}
	return nil
}

// Row returns a copy of the i-th row.
func (t *Table) Row(i int) []Value { return t.appendRow(make([]Value, 0, len(t.cols)), i) }

func (t *Table) appendRow(dst []Value, i int) []Value {
	for ci := range t.cols {
		dst = append(dst, t.cols[ci].value(i))
	}
	return dst
}

// Update replaces row i in place, enforcing arity and column types, and
// maintains all indexes. Row ids are stable across updates, so index
// entries for unchanged columns stay valid.
func (t *Table) Update(i int, row []Value) error {
	if i < 0 || i >= t.n {
		return fmt.Errorf("statsdb: table %s has no row %d", t.name, i)
	}
	if err := t.check(row); err != nil {
		return err
	}
	for ci, v := range row {
		t.cols[ci].set(i, v)
	}
	return nil
}

// lookupRows appends to dst the ids of rows whose column ci equals v, of
// the column's type, using the hash index when one exists and a scan
// otherwise.
func (t *Table) lookupRows(dst []int32, ci int, v Value) []int32 {
	c := &t.cols[ci]
	k, ok := c.keyOf(v)
	switch {
	case !ok:
	case c.index != nil:
		dst = c.index.rows(dst, k)
	default:
		for r := 0; r < t.n; r++ {
			if c.key(r) == k {
				dst = append(dst, int32(r))
			}
		}
	}
	return dst
}

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable adds a table to the database.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("statsdb: table %s already exists", name)
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// declare returns table name, creating it with schema and a hash index on
// each of indexes when db lacks it: the first write to a declared table
// creates it. A table laid out other than schema is an error.
func (db *DB) declare(name string, schema Schema, indexes ...string) (*Table, error) {
	if t := db.tables[name]; t != nil {
		if err := t.checkLayout(schema); err != nil {
			return nil, err
		}
		return t, nil
	}
	t, err := db.CreateTable(name, schema)
	for _, col := range indexes {
		if err == nil {
			err = t.CreateIndex(col)
		}
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
