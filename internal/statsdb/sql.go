package statsdb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseQuery parses a SQL-subset SELECT statement against the database and
// returns an executable Query. The grammar:
//
//	SELECT select_list FROM table
//	    [WHERE pred (AND pred)*]
//	    [GROUP BY col (, col)*]
//	    [ORDER BY key (, key)*]
//	    [LIMIT n]
//
//	select_list := * | item (, item)*
//	item        := col | fn ( col | * )         fn ∈ COUNT SUM AVG MIN MAX
//	pred        := col op literal               op ∈ = != <> < <= > >=
//	key         := (col | fn(col)) [ASC | DESC]
//	literal     := number | 'string' | true | false
//
// Keywords are case-insensitive; identifiers are case-sensitive.
func (db *DB) ParseQuery(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{db: db, toks: toks}
	q, err := p.parseSelect()
	if err != nil {
		return nil, fmt.Errorf("statsdb: parse %q: %w", sql, err)
	}
	return q, nil
}

// Query parses and runs a SQL statement in one call. A statement prefixed
// with EXPLAIN is planned but not executed; the result is a single "plan"
// row describing the access path.
func (db *DB) Query(sql string) (*Result, error) {
	trimmed := strings.TrimSpace(sql)
	if len(trimmed) >= 8 && strings.EqualFold(trimmed[:8], "EXPLAIN ") {
		q, err := db.ParseQuery(trimmed[8:])
		if err != nil {
			return nil, err
		}
		plan, err := q.Explain()
		if err != nil {
			return nil, err
		}
		return &Result{Columns: []string{"plan"}, Rows: [][]Value{{StringVal(plan)}}}, nil
	}
	q, err := db.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// token kinds.
type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

// lex splits a SQL string into tokens.
func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(s) {
					return nil, fmt.Errorf("unterminated string literal")
				}
				if s[j] == '\'' {
					// '' escapes a quote inside the literal.
					if j+1 < len(s) && s[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(s[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String()})
			i = j + 1
		case unicode.IsDigit(c) || (c == '-' && i+1 < len(s) && unicode.IsDigit(rune(s[i+1]))):
			j := i + 1
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' ||
				s[j] == 'E' || ((s[j] == '+' || s[j] == '-') && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokNumber, s[i:j]})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_' || s[j] == '.') {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		case strings.ContainsRune("(),*", c):
			toks = append(toks, token{tokSymbol, string(c)})
			i++
		case c == '=', c == '<', c == '>', c == '!':
			j := i + 1
			if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
				j++
			}
			toks = append(toks, token{tokSymbol, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

// sqlParser is a recursive-descent parser over the token stream.
type sqlParser struct {
	db   *DB
	toks []token
	pos  int
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }

func (p *sqlParser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword consumes the next token if it is the given keyword
// (case-insensitive identifier).
func (p *sqlParser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *sqlParser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return nil
	}
	return fmt.Errorf("expected %q, found %q", sym, t.text)
}

var aggFns = map[string]AggFn{
	"COUNT": AggCount,
	"SUM":   AggSum,
	"AVG":   AggAvg,
	"MIN":   AggMin,
	"MAX":   AggMax,
}

// selectItem is a parsed select-list entry.
type selectItem struct {
	col   string
	agg   *Agg
	label string
}

func (p *sqlParser) parseSelect() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}

	// * leaves the select list empty, which Select reads as *.
	var items []selectItem
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.next()
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tname := p.next()
	if tname.kind != tokIdent {
		return nil, fmt.Errorf("expected table name, found %q", tname.text)
	}
	table := p.db.Table(tname.text)
	if table == nil {
		return nil, fmt.Errorf("unknown table %q", tname.text)
	}
	if p.keyword("JOIN") {
		var err error
		table, err = p.parseJoin(table)
		if err != nil {
			return nil, err
		}
	}

	var cols []string
	var aggs []Agg
	for _, it := range items {
		if it.agg != nil {
			aggs = append(aggs, *it.agg)
		} else {
			cols = append(cols, it.col)
		}
	}
	q := Select(table, cols...).Aggregate(aggs...)

	if p.keyword("WHERE") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Where(pred)
			if p.keyword("AND") {
				continue
			}
			break
		}
	}

	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("expected column in GROUP BY, found %q", t.text)
			}
			q.GroupBy(t.text)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseOrderKey()
			if err != nil {
				return nil, err
			}
			q.OrderBy(key)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}

	if p.keyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("expected number after LIMIT, found %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid LIMIT %q", t.text)
		}
		q.Limit(n)
	}

	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("unexpected trailing input %q", t.text)
	}
	if err := resolveQueryColumns(q); err != nil {
		return nil, err
	}
	return q, nil
}

// parseJoin handles "JOIN right ON a = b" after the left table.
func (p *sqlParser) parseJoin(left *Table) (*Table, error) {
	rname := p.next()
	if rname.kind != tokIdent {
		return nil, fmt.Errorf("expected table name after JOIN, found %q", rname.text)
	}
	right := p.db.Table(rname.text)
	if right == nil {
		return nil, fmt.Errorf("unknown table %q", rname.text)
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	c1 := p.next()
	if c1.kind != tokIdent {
		return nil, fmt.Errorf("expected column in ON, found %q", c1.text)
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	c2 := p.next()
	if c2.kind != tokIdent {
		return nil, fmt.Errorf("expected column in ON, found %q", c2.text)
	}
	leftCol, rightCol, err := assignJoinSides(left, right, c1.text, c2.text)
	if err != nil {
		return nil, err
	}
	return Join(left, right, leftCol, rightCol)
}

// assignJoinSides figures out which ON operand belongs to which table,
// accepting "table.col" qualification or unambiguous bare names.
func assignJoinSides(left, right *Table, a, b string) (leftCol, rightCol string, err error) {
	side := func(name string) (onLeft bool, col string, err error) {
		if rest, ok := strings.CutPrefix(name, left.name+"."); ok {
			return true, rest, nil
		}
		if rest, ok := strings.CutPrefix(name, right.name+"."); ok {
			return false, rest, nil
		}
		inLeft := left.schema.Index(name) >= 0
		inRight := right.schema.Index(name) >= 0
		switch {
		case inLeft && inRight:
			return false, "", fmt.Errorf("statsdb: ON column %q is ambiguous; qualify it", name)
		case inLeft:
			return true, name, nil
		case inRight:
			return false, name, nil
		default:
			return false, "", fmt.Errorf("statsdb: ON column %q found in neither table", name)
		}
	}
	aLeft, aCol, err := side(a)
	if err != nil {
		return "", "", err
	}
	bLeft, bCol, err := side(b)
	if err != nil {
		return "", "", err
	}
	if aLeft == bLeft {
		return "", "", fmt.Errorf("statsdb: ON must reference one column from each table")
	}
	if aLeft {
		return aCol, bCol, nil
	}
	return bCol, aCol, nil
}

// resolveQueryColumns maps possibly-unqualified column references onto
// the (possibly joined) table's schema.
func resolveQueryColumns(q *Query) error {
	t := q.table
	var err error
	for i, c := range q.cols {
		if q.cols[i], err = resolveColumn(t, c); err != nil {
			return err
		}
	}
	for i := range q.preds {
		if q.preds[i].Col, err = resolveColumn(t, q.preds[i].Col); err != nil {
			return err
		}
	}
	for i := range q.groupBy {
		if q.groupBy[i], err = resolveColumn(t, q.groupBy[i]); err != nil {
			return err
		}
	}
	for i := range q.aggs {
		if q.aggs[i].Col == "*" {
			continue
		}
		if q.aggs[i].Col, err = resolveColumn(t, q.aggs[i].Col); err != nil {
			return err
		}
	}
	for i := range q.orderBy {
		col := q.orderBy[i].Col
		if open := strings.IndexByte(col, '('); open >= 0 && strings.HasSuffix(col, ")") {
			// Aggregate label, e.g. avg(walltime): resolve the inner
			// column so the label matches the resolved select list.
			inner := col[open+1 : len(col)-1]
			if inner != "*" {
				resolved, err := resolveColumn(t, inner)
				if err != nil {
					return err
				}
				q.orderBy[i].Col = col[:open+1] + resolved + ")"
			}
			continue
		}
		if q.orderBy[i].Col, err = resolveColumn(t, col); err != nil {
			return err
		}
	}
	return nil
}

func (p *sqlParser) parseSelectItem() (selectItem, error) {
	t := p.next()
	if t.kind != tokIdent {
		return selectItem{}, fmt.Errorf("expected column or aggregate, found %q", t.text)
	}
	if fn, ok := aggFns[strings.ToUpper(t.text)]; ok && p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		arg := p.next()
		var col string
		switch {
		case arg.kind == tokSymbol && arg.text == "*":
			col = "*"
		case arg.kind == tokIdent:
			col = arg.text
		default:
			return selectItem{}, fmt.Errorf("expected column or * in %s(), found %q", t.text, arg.text)
		}
		if err := p.expectSymbol(")"); err != nil {
			return selectItem{}, err
		}
		a := Agg{Fn: fn, Col: col}
		return selectItem{agg: &a, label: a.Label()}, nil
	}
	return selectItem{col: t.text}, nil
}

func (p *sqlParser) parsePred() (Pred, error) {
	col := p.next()
	if col.kind != tokIdent {
		return Pred{}, fmt.Errorf("expected column in WHERE, found %q", col.text)
	}
	opTok := p.next()
	if opTok.kind != tokSymbol {
		return Pred{}, fmt.Errorf("expected operator, found %q", opTok.text)
	}
	var op Op
	switch opTok.text {
	case "=":
		op = OpEq
	case "!=", "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return Pred{}, fmt.Errorf("unknown operator %q", opTok.text)
	}
	val, err := p.parseLiteral()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Col: col.text, Op: op, Val: val}, nil
}

func (p *sqlParser) parseLiteral() (Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return IntVal(n), nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("invalid number %q", t.text)
		}
		return FloatVal(f), nil
	case tokString:
		return StringVal(t.text), nil
	case tokIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return BoolVal(true), nil
		case "FALSE":
			return BoolVal(false), nil
		}
		return Value{}, fmt.Errorf("expected literal, found identifier %q (string literals use single quotes)", t.text)
	default:
		return Value{}, fmt.Errorf("expected literal, found %q", t.text)
	}
}

func (p *sqlParser) parseOrderKey() (OrderKey, error) {
	t := p.next()
	if t.kind != tokIdent {
		return OrderKey{}, fmt.Errorf("expected column in ORDER BY, found %q", t.text)
	}
	col := t.text
	// Allow ordering by an aggregate label, e.g. ORDER BY avg(walltime).
	if fn, ok := aggFns[strings.ToUpper(col)]; ok && p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.next()
		arg := p.next()
		var argName string
		switch {
		case arg.kind == tokSymbol && arg.text == "*":
			argName = "*"
		case arg.kind == tokIdent:
			argName = arg.text
		default:
			return OrderKey{}, fmt.Errorf("expected column or * in ORDER BY aggregate, found %q", arg.text)
		}
		if err := p.expectSymbol(")"); err != nil {
			return OrderKey{}, err
		}
		col = Agg{Fn: fn, Col: argName}.Label()
	}
	key := OrderKey{Col: col}
	if p.keyword("DESC") {
		key.Desc = true
	} else {
		p.keyword("ASC")
	}
	return key, nil
}
