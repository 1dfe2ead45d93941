package statsdb

import (
	"fmt"
	"strings"
)

// Join materializes the hash equi-join of two tables on left.leftCol =
// right.rightCol. The result is a new table whose columns are qualified
// as "<table>.<column>", queryable with the ordinary machinery — so the
// factory can ask questions that span run statistics and plant metadata
// ("average walltime per node speed class"), the kind of monitoring query
// §3's discussion of database-backed workflow management calls for.
//
// Rows pair in left-table order then right insertion order, so results
// are deterministic. The join keys must be mutually comparable (same type
// or both numeric).
func Join(left, right *Table, leftCol, rightCol string) (*Table, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("statsdb: Join with nil table")
	}
	li := left.schema.Index(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("statsdb: table %s has no column %q", left.name, leftCol)
	}
	ri := right.schema.Index(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("statsdb: table %s has no column %q", right.name, rightCol)
	}
	lt, rt := left.schema[li].Type, right.schema[ri].Type
	if !comparableTypes(lt, rt) {
		return nil, fmt.Errorf("statsdb: cannot join %s (%s) with %s (%s)",
			leftCol, lt, rightCol, rt)
	}

	schema := make(Schema, 0, len(left.schema)+len(right.schema))
	for _, c := range left.schema {
		schema = append(schema, Column{Name: left.name + "." + c.Name, Type: c.Type})
	}
	for _, c := range right.schema {
		schema = append(schema, Column{Name: right.name + "." + c.Name, Type: c.Type})
	}
	out, err := NewTable(left.name+"_join_"+right.name, schema)
	if err != nil {
		return nil, err
	}

	// Hash the right side by the join key: two INT columns join exactly,
	// an INT with a FLOAT as float64s (so Int 2 joins Float 2.0), and a
	// left string probes by the right column's dictionary code.
	lc, rc := &left.cols[li], &right.cols[ri]
	key := func(c *column, r int) (uint64, bool) {
		switch {
		case lt != rt:
			return valueKey(FloatVal(c.value(r).Float())), true
		case c == lc && lt == String:
			return rc.keyOf(c.value(r))
		}
		return c.key(r), true
	}
	build := make(map[uint64][]int32)
	for r := 0; r < right.n; r++ {
		k, _ := key(rc, r)
		build[k] = append(build[k], int32(r))
	}
	var joined []Value
	for l := 0; l < left.n; l++ {
		k, ok := key(lc, l)
		if !ok {
			continue
		}
		for _, r := range build[k] {
			joined = right.appendRow(left.appendRow(joined[:0], l), int(r))
			if err := out.Insert(joined); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// resolveColumn maps a possibly-unqualified column name onto a table's
// schema: an exact match wins; otherwise a unique ".name" suffix match is
// accepted (so "walltime" finds "runs.walltime" after a join). Ambiguous
// or unknown names error.
func resolveColumn(t *Table, name string) (string, error) {
	if t.schema.Index(name) >= 0 {
		return name, nil
	}
	var matches []string
	for _, c := range t.schema {
		if strings.HasSuffix(c.Name, "."+name) {
			matches = append(matches, c.Name)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return "", fmt.Errorf("statsdb: table %s has no column %q", t.name, name)
	default:
		return "", fmt.Errorf("statsdb: column %q is ambiguous in %s (%s)",
			name, t.name, strings.Join(matches, ", "))
	}
}
