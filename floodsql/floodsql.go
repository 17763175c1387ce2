// Package floodsql translates the SQL fragment the paper targets (§3) into
// flood queries:
//
//	SELECT SUM(R.X) FROM MyTable
//	WHERE (a <= R.Y AND R.Y <= b) AND (c <= R.Z AND R.Z <= d)
//
// The supported grammar covers single-table aggregations, row-retrieval
// projections, and mutations, with conjunctive and disjunctive predicates:
//
//	stmt    := select | delete | update
//	select  := SELECT target FROM ident [WHERE pred] [LIMIT n]
//	delete  := DELETE FROM ident [WHERE pred]
//	update  := UPDATE ident SET assign (',' assign)* [WHERE pred]
//	assign  := col = value
//	target  := agg | proj
//	agg     := COUNT(*) | SUM(col) | MIN(col) | MAX(col)
//	proj    := * | col (',' col)*
//	pred    := or
//	or      := and (OR and)*
//	and     := atom (AND atom)*
//	atom    := '(' pred ')' | col op value | col BETWEEN value AND value
//	         | col LIKE 'prefix%' | col IN '(' value (',' value)* ')'
//	op      := = | < | <= | > | >=
//	value   := integer | float | 'string'
//
// DELETE and UPDATE execute through Statement.Exec against any index facade
// implementing flood.Deleter / flood.Updater; SET literals are encoded
// through the schema exactly like predicate literals (an assigned string
// must already be in the column's fitted dictionary, an assigned float must
// be representable in the column's decimal scale).
//
// Statements parsed against a raw int64 table (Parse) accept only integer
// literals and aggregation targets. Statements parsed against a typed schema
// (ParseTyped) additionally support projections and resolve float and string
// literals through the schema's encoders — decimal scalers round range
// endpoints conservatively inward, string comparisons follow lexicographic
// dictionary order, and LIKE supports prefix patterns.
//
// Predicates are normalized to disjunctive normal form; disjuncts execute
// through flood.ExecuteOr, which decomposes them into disjoint rectangles so
// rows are never double-counted (§3: OR clauses "can be decomposed into
// multiple queries over disjoint attribute ranges"). Projections return a
// *flood.Rows cursor via Statement.Select.
//
// LIMIT n applies to projections only (an aggregate always yields one row)
// and n must be a positive integer — LIMIT 0 and negative limits are
// rejected at parse time with a positioned error. The limit is pushed down
// into the scan kernel, not applied to a materialized result: execution
// stops after the n-th matching row, and with an OR predicate the budget is
// shared across the disjoint pieces so at most n rows are gathered in
// total. RunContext and SelectContext run statements under a caller's
// context for cancellation and deadlines.
//
// Parse errors carry the byte offset and the offending token:
//
//	floodsql: at byte 34 near "BETWEEEN": expected comparison operator
package floodsql

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	flood "flood"
)

// Statement is a parsed, table-resolved query: an aggregation
// (Agg = "count", "sum", "min", "max") executed with Run, a projection
// (Agg = "select") executed with Select, or a mutation (Agg = "insert",
// "delete", "update") executed with Exec.
type Statement struct {
	// Agg is "count", "sum", "min", "max", "select" for projections, or
	// "insert" / "delete" / "update" for mutations.
	Agg string
	// AggCol is the aggregated column index (-1 for COUNT(*) and
	// projections).
	AggCol int
	// Projection lists the selected column names for Agg == "select"
	// (resolved; SELECT * expands to every column in schema order).
	Projection []string
	// Table is the FROM identifier (informational; resolution happens
	// against the table or schema passed at parse time).
	Table string
	// Disjuncts is the predicate in disjunctive normal form: the result
	// set is the union of these hyper-rectangles. An empty slice means
	// no WHERE clause (match everything).
	Disjuncts []flood.Query
	// Limit is the LIMIT clause's row count (0 = no LIMIT). Select pushes
	// it down into the scan, stopping execution after the Limit-th match.
	Limit int
	// Assignments is the UPDATE statement's SET list, with literals already
	// encoded into the physical int64 domain.
	Assignments []flood.Assignment
	// InsertRows holds the INSERT statement's rows, already encoded into
	// the physical int64 domain in schema column order.
	InsertRows [][]int64
	nDims      int
	schema     *flood.Schema // non-nil for ParseTyped statements
}

// Parse compiles a SQL string against tbl's raw int64 schema. Only integer
// literals are accepted; use ParseTyped for float and string predicates and
// typed projections.
func Parse(sql string, tbl *flood.Table) (*Statement, error) {
	p := parser{lex: lexer{src: sql}, cols: tbl}
	return p.run()
}

// ParseTyped compiles a SQL string against a typed schema (fitted by its
// TableBuilder), resolving float and string literals through the schema's
// encoders. Projections decode through the same schema when executed.
func ParseTyped(sql string, schema *flood.Schema) (*Statement, error) {
	p := parser{lex: lexer{src: sql}, cols: schema, schema: schema}
	return p.run()
}

func (p *parser) run() (*Statement, error) {
	p.lex.next()
	st, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("floodsql: %w", err)
	}
	return st, nil
}

// Queries returns the statement's rectangles — its DNF disjuncts, or one
// unfiltered query when it has no WHERE clause — together with a fresh
// aggregator for an aggregation statement (nil for a projection or a
// mutation). It is what Run executes and what a caller batching statements
// itself (the server's collector) needs of one.
func (s *Statement) Queries() ([]flood.Query, flood.Aggregator) {
	qs := s.Disjuncts
	if len(qs) == 0 {
		qs = []flood.Query{flood.NewQuery(s.nDims)}
	}
	switch s.Agg {
	case "count":
		return qs, flood.NewCount()
	case "sum":
		return qs, flood.NewSum(s.AggCol)
	case "min":
		return qs, flood.NewMin(s.AggCol)
	case "max":
		return qs, flood.NewMax(s.AggCol)
	}
	return qs, nil
}

// notAggregate is the error for running a statement Queries gives no
// aggregator for.
func (s *Statement) notAggregate() error {
	switch s.Agg {
	case "select":
		return fmt.Errorf("floodsql: projection statements execute via Select, not Run")
	case "insert", "delete", "update":
		return fmt.Errorf("floodsql: mutation statements execute via Exec, not Run")
	}
	return fmt.Errorf("floodsql: unknown aggregate %q", s.Agg)
}

// Typed decodes an aggregate's physical result into the aggregated column's
// logical type: COUNT(*) stays int64, SUM/MIN/MAX over a float column become
// float64 (decimal scaling is linear, so SUM decodes exactly), MIN/MAX over a
// time column time.Time. A MIN/MAX over matched == 0 rows is nil: there is no
// extremum, and checking the count rather than the sentinel keeps a
// legitimate MIN of MaxInt64 distinguishable from an empty result. A
// statement parsed without a schema returns value unchanged.
func (s *Statement) Typed(value, matched int64) any {
	if s.schema == nil || s.AggCol < 0 {
		return value
	}
	if (s.Agg == "min" || s.Agg == "max") && matched == 0 {
		return nil
	}
	return s.schema.DecodeValue(s.AggCol, value)
}

// Exec executes an INSERT, DELETE, or UPDATE statement against an index
// facade that supports mutation (flood.Inserter / flood.Deleter /
// flood.Updater: AdaptiveIndex, ShardedIndex; plain Flood
// supports DELETE only). It returns the number of rows affected. An OR predicate executes one mutation per
// disjunct: deletes are idempotent so overlapping disjuncts never
// double-count, while an UPDATE whose rewritten rows still match a later
// disjunct rewrites them again (same final values — assignments are
// constants — but the affected count can exceed the distinct row count).
func (s *Statement) Exec(idx flood.Index) (int64, error) {
	// One step per disjunct (DELETE, UPDATE) or per row (INSERT).
	var steps int
	var step func(i int) (int64, error)
	switch s.Agg {
	case "delete":
		if del, ok := idx.(flood.Deleter); ok {
			qs, _ := s.Queries()
			steps, step = len(qs), func(i int) (int64, error) { return del.Delete(qs[i]) }
		}
	case "update":
		if up, ok := idx.(flood.Updater); ok {
			qs, _ := s.Queries()
			steps, step = len(qs), func(i int) (int64, error) { return up.Update(qs[i], s.Assignments) }
		}
	case "insert":
		if ins, ok := idx.(flood.Inserter); ok {
			steps, step = len(s.InsertRows), func(i int) (int64, error) {
				if err := ins.Insert(s.InsertRows[i]); err != nil {
					return 0, err
				}
				return 1, nil
			}
		}
	default:
		return 0, fmt.Errorf("floodsql: %s statements execute via Run or Select, not Exec", strings.ToUpper(s.Agg))
	}
	if step == nil {
		return 0, fmt.Errorf("floodsql: index %s does not support %s", idx.Name(), strings.ToUpper(s.Agg))
	}
	var total int64
	for i := 0; i < steps; i++ {
		n, err := step(i)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Run executes an aggregation statement against any index built over the
// same table, returning the result in the physical int64 domain (SUM/MIN/MAX
// over a decimal-scaled float column return the scaled integer — use
// RunTyped for the decoded logical value). Projection statements must run
// through Select instead.
func (s *Statement) Run(idx flood.Index) (int64, flood.Stats, error) {
	qs, agg := s.Queries()
	if agg == nil {
		return 0, flood.Stats{}, s.notAggregate()
	}
	st := flood.ExecuteOr(idx, qs, agg)
	return agg.Result(), st, nil
}

// RunContext is Run under ctx: a canceled context or expired deadline stops
// execution cooperatively, returning the partial aggregate and Stats with
// flood.ErrCanceled.
func (s *Statement) RunContext(ctx context.Context, idx flood.Index) (int64, flood.Stats, error) {
	qs, agg := s.Queries()
	if agg == nil {
		return 0, flood.Stats{}, s.notAggregate()
	}
	st, err := flood.ExecuteOrContext(ctx, idx, qs, agg)
	return agg.Result(), st, err
}

// RunTyped executes an aggregation like Run and decodes the result through
// Typed. Requires a ParseTyped statement.
func (s *Statement) RunTyped(idx flood.Index) (any, flood.Stats, error) {
	v, st, err := s.Run(idx)
	if err != nil {
		return v, st, err
	}
	return s.Typed(v, st.Matched), st, nil
}

// Select executes a projection statement against any index built over the
// same table, returning a typed row cursor (close it when done). The
// statement must come from ParseTyped so results decode through the schema.
// A LIMIT clause rides the scan-level pushdown: execution stops after the
// limit-th matching row instead of truncating a materialized result.
func (s *Statement) Select(idx flood.Index) (*flood.Rows, flood.Stats, error) {
	return s.SelectContext(context.Background(), idx)
}

// SelectContext is Select under ctx: cancellation and deadlines stop the
// scan cooperatively (the rows gathered so far return with
// flood.ErrCanceled), and the statement's LIMIT is pushed down into the
// scan kernel, its budget shared across the disjoint pieces of an OR.
func (s *Statement) SelectContext(ctx context.Context, idx flood.Index) (*flood.Rows, flood.Stats, error) {
	if s.Agg != "select" {
		return nil, flood.Stats{}, fmt.Errorf("floodsql: aggregation statements execute via Run, not Select")
	}
	if s.schema == nil {
		return nil, flood.Stats{}, fmt.Errorf("floodsql: projection needs a typed schema; parse with ParseTyped")
	}
	qs, _ := s.Queries()
	return s.schema.SelectOrContext(ctx, idx, qs, &flood.QueryOptions{Limit: s.Limit}, s.Projection...)
}

// --- column resolution ---

// columns abstracts the two name-resolution targets; *flood.Table and
// *flood.Schema both satisfy it directly.
type columns interface {
	ColumnIndex(name string) int
	Name(i int) string
	NumCols() int
}

// --- lexer ---

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or decimal literal
	tokString // '...' literal (text holds the unquoted value)
	tokSymbol // ( ) , * =  < <= > >=
)

// keyword classifies an identifier once, when it is lexed, so the parser's
// many "is this WHERE / AND / LIMIT ..." tests are integer compares instead
// of a case-folding string compare per candidate.
type keyword uint8

const (
	kwNone keyword = iota
	kwSelect
	kwInsert
	kwDelete
	kwUpdate
	kwFrom
	kwWhere
	kwLimit
	kwInto
	kwValues
	kwSet
	kwAnd
	kwOr
	kwBetween
	kwLike
	kwIn
)

var keywordNames = [...]string{
	kwSelect: "SELECT", kwInsert: "INSERT", kwDelete: "DELETE", kwUpdate: "UPDATE",
	kwFrom: "FROM", kwWhere: "WHERE", kwLimit: "LIMIT", kwInto: "INTO",
	kwValues: "VALUES", kwSet: "SET", kwAnd: "AND", kwOr: "OR",
	kwBetween: "BETWEEN", kwLike: "LIKE", kwIn: "IN",
}

// keywordsByLen buckets the keywords by length, each with its letters packed
// into one word, the form keywordOf compares in.
var keywordsByLen = func() (byLen [len("BETWEEN") + 1][]packedKeyword) {
	for kw, name := range keywordNames {
		if name != "" {
			byLen[len(name)] = append(byLen[len(name)], packedKeyword{packUpper(name), keyword(kw)})
		}
	}
	return byLen
}()

type packedKeyword struct {
	key uint64
	kw  keyword
}

// packUpper packs up to eight identifier bytes into a word, folding letters
// to upper case by clearing bit 0x20; no digit, '_' or '.' folds to a letter,
// so only a keyword's own spelling packs to its key.
func packUpper(s string) uint64 {
	var k uint64
	for i := 0; i < len(s); i++ {
		k = k<<8 | uint64(s[i]&^0x20)
	}
	return k
}

func keywordOf(s string) keyword {
	if len(s) >= len(keywordsByLen) {
		return kwNone
	}
	k := packUpper(s)
	for _, c := range keywordsByLen[len(s)] {
		if c.key == k {
			return c.kw
		}
	}
	return kwNone
}

type token struct {
	kind tokenKind
	kw   keyword // for tokIdent: the keyword it spells, if any
	text string
	off  int // byte offset of the token's first character
}

// describe renders a token for error messages.
func (t token) describe() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// isSymbol reports whether t is the punctuation s.
func (t token) isSymbol(s string) bool { return t.kind == tokSymbol && t.text == s }

type lexer struct {
	src string
	pos int
	tok token
	err error // first lexical error (unterminated string)
}

func (l *lexer) next() {
	src, pos := l.src, l.pos
	for pos < len(src) && isSpace(src[pos]) {
		pos++
	}
	start := pos
	if pos >= len(src) {
		l.pos = pos
		l.tok = token{kind: tokEOF, off: start}
		return
	}
	kind, kw := tokSymbol, kwNone
	switch c := src[pos]; {
	case isAlpha(c):
		for pos < len(src) && identChar[src[pos]] {
			pos++
		}
		kind, kw = tokIdent, keywordOf(src[start:pos])
	case isDigit(c) || (c == '-' && pos+1 < len(src) && isDigit(src[pos+1])):
		pos++
		for pos < len(src) && (isDigit(src[pos]) || src[pos] == '_') {
			pos++
		}
		if pos+1 < len(src) && src[pos] == '.' && isDigit(src[pos+1]) {
			pos++
			for pos < len(src) && isDigit(src[pos]) {
				pos++
			}
		}
		kind = tokNumber
	case c == '\'':
		l.stringLiteral(start)
		return
	case (c == '<' || c == '>') && pos+1 < len(src) && src[pos+1] == '=':
		pos += 2
	default:
		pos++
	}
	l.pos = pos
	l.tok = token{kind: kind, kw: kw, text: src[start:pos], off: start}
}

// stringLiteral lexes a quoted literal starting at the opening quote. The
// value is a slice of the source unless it contains a doubled-quote escape,
// the only case that needs a rewritten copy.
func (l *lexer) stringLiteral(start int) {
	l.pos = start + 1
	body := l.pos
	escaped := false
	for {
		i := strings.IndexByte(l.src[l.pos:], '\'')
		if i < 0 {
			l.pos = len(l.src)
			l.tok = token{kind: tokEOF, off: start}
			if l.err == nil {
				l.err = fmt.Errorf("at byte %d: unterminated string literal", start)
			}
			return
		}
		l.pos += i + 1
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			break
		}
		escaped = true
		l.pos++
	}
	text := l.src[body : l.pos-1]
	if escaped {
		text = strings.ReplaceAll(text, "''", "'")
	}
	l.tok = token{kind: tokString, text: text, off: start}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// identChar marks the bytes that continue an identifier: letters, digits,
// '_' and the '.' of a qualified name.
var identChar = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = isAlpha(byte(c)) || isDigit(byte(c)) || c == '_' || c == '.'
	}
	return t
}()

// --- parser ---

type parser struct {
	lex    lexer
	cols   columns
	schema *flood.Schema // nil when parsing against a raw table
}

// errAt is the shared error constructor: every parse error pins the byte
// offset and the offending token, so malformed WHERE clauses point at the
// exact spot.
func (p *parser) errAt(tok token, format string, args ...any) error {
	if p.lex.err != nil {
		return p.lex.err
	}
	return fmt.Errorf("at byte %d near %s: %s", tok.off, tok.describe(), fmt.Sprintf(format, args...))
}

func (p *parser) statement() (*Statement, error) {
	if p.isKeyword(kwDelete) {
		return p.deleteStatement()
	}
	if p.isKeyword(kwUpdate) {
		return p.updateStatement()
	}
	if p.isKeyword(kwInsert) {
		return p.insertStatement()
	}
	if !p.isKeyword(kwSelect) {
		return nil, p.errAt(p.lex.tok, "expected SELECT, INSERT, DELETE, or UPDATE")
	}
	p.lex.next()
	st := &Statement{AggCol: -1, nDims: p.cols.NumCols(), schema: p.schema}
	if err := p.target(st); err != nil {
		return nil, err
	}
	if err := p.keyword(kwFrom); err != nil {
		return nil, err
	}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if p.lex.tok.kind == tokEOF && p.lex.err == nil {
		return st, nil
	}
	if p.isKeyword(kwWhere) {
		p.lex.next()
		dnf, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Disjuncts = dnf
	} else if !p.isKeyword(kwLimit) {
		return nil, p.errAt(p.lex.tok, "expected WHERE")
	}
	if p.isKeyword(kwLimit) {
		if err := p.limitClause(st); err != nil {
			return nil, err
		}
	}
	if p.lex.tok.kind != tokEOF || p.lex.err != nil {
		return nil, p.errAt(p.lex.tok, "unexpected trailing input")
	}
	return st, nil
}

// deleteStatement parses `DELETE FROM table [WHERE pred]`.
func (p *parser) deleteStatement() (*Statement, error) {
	p.lex.next()
	if err := p.keyword(kwFrom); err != nil {
		return nil, err
	}
	st := &Statement{Agg: "delete", AggCol: -1, nDims: p.cols.NumCols(), schema: p.schema}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	return p.optionalWhere(st)
}

// updateStatement parses `UPDATE table SET col = lit, ... [WHERE pred]`.
func (p *parser) updateStatement() (*Statement, error) {
	p.lex.next()
	st := &Statement{Agg: "update", AggCol: -1, nDims: p.cols.NumCols(), schema: p.schema}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.keyword(kwSet); err != nil {
		return nil, err
	}
	for {
		colTok := p.lex.tok
		col, err := p.column()
		if err != nil {
			return nil, err
		}
		if err := p.symbol("="); err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		enc, err := p.encodeAssign(col, colTok, v)
		if err != nil {
			return nil, err
		}
		st.Assignments = append(st.Assignments, flood.Assignment{Col: col, Value: enc})
		if p.lex.tok.isSymbol(",") {
			p.lex.next()
			continue
		}
		break
	}
	return p.optionalWhere(st)
}

// insertStatement parses
// `INSERT INTO table [(col, ...)] VALUES (lit, ...) [, (lit, ...)]...`.
// Literals encode exactly (encodeAssign semantics): a float that does not
// land on a representable code, or a string missing from the column's
// dictionary, is an error rather than a silently rounded neighbour. When a
// column list is given it must name every column exactly once — flood rows
// are dense, so there is no value a partial INSERT could leave behind.
func (p *parser) insertStatement() (*Statement, error) {
	p.lex.next()
	if err := p.keyword(kwInto); err != nil {
		return nil, err
	}
	st := &Statement{Agg: "insert", AggCol: -1, nDims: p.cols.NumCols(), schema: p.schema}
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	// Optional column list: a permutation of all columns.
	order := make([]int, 0, st.nDims)
	if p.lex.tok.isSymbol("(") {
		p.lex.next()
		seen := make(map[int]bool, st.nDims)
		for {
			colTok := p.lex.tok
			col, err := p.column()
			if err != nil {
				return nil, err
			}
			if seen[col] {
				return nil, p.errAt(colTok, "column %q listed twice", p.cols.Name(col))
			}
			seen[col] = true
			order = append(order, col)
			if p.lex.tok.isSymbol(",") {
				p.lex.next()
				continue
			}
			break
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		if len(order) != st.nDims {
			return nil, p.errAt(p.lex.tok, "INSERT column list names %d of %d columns; rows are dense, list all columns or none", len(order), st.nDims)
		}
	} else {
		for i := 0; i < st.nDims; i++ {
			order = append(order, i)
		}
	}
	if err := p.keyword(kwValues); err != nil {
		return nil, err
	}
	for {
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		row := make([]int64, st.nDims)
		for i, col := range order {
			v, err := p.value()
			if err != nil {
				return nil, err
			}
			colTok := v.tok
			enc, err := p.encodeAssign(col, colTok, v)
			if err != nil {
				return nil, err
			}
			row[col] = enc
			if i < len(order)-1 {
				if err := p.symbol(","); err != nil {
					return nil, err
				}
			}
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		st.InsertRows = append(st.InsertRows, row)
		if p.lex.tok.isSymbol(",") {
			p.lex.next()
			continue
		}
		break
	}
	if p.lex.tok.kind != tokEOF || p.lex.err != nil {
		return nil, p.errAt(p.lex.tok, "unexpected trailing input")
	}
	return st, nil
}

// optionalWhere parses the optional WHERE clause of a mutation statement and
// rejects trailing input. Mutations take no LIMIT: "delete some of the
// matches" has no deterministic meaning.
func (p *parser) optionalWhere(st *Statement) (*Statement, error) {
	if p.isKeyword(kwWhere) {
		p.lex.next()
		dnf, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Disjuncts = dnf
	}
	if p.lex.tok.kind != tokEOF || p.lex.err != nil {
		return nil, p.errAt(p.lex.tok, "unexpected trailing input")
	}
	return st, nil
}

// encodeAssign converts an assignment literal to the column's storage
// encoding: dictionary code for strings, scaled integer for floats (the value
// must land exactly on a representable code), raw int64 otherwise. Unlike
// predicates — where a miss just selects nothing — an assignment that cannot
// be represented exactly is an error, because storing a rounded neighbour
// would silently change the written value.
func (p *parser) encodeAssign(col int, colTok token, v value) (int64, error) {
	kind := p.kindOf(col)
	switch {
	case v.kind == tokString:
		if kind != flood.KindString {
			return 0, p.errAt(v.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d := p.schema.Dictionary(p.cols.Name(col))
		if d == nil {
			return 0, p.errAt(v.tok, "column %q has no fitted dictionary yet (build the table first)", p.cols.Name(col))
		}
		c, ok := d.Code(v.s)
		if !ok {
			return 0, p.errAt(v.tok, "value %q is not in column %q's dictionary", v.s, p.cols.Name(col))
		}
		return c, nil
	case kind == flood.KindString:
		return 0, p.errAt(v.tok, "string column %q needs a string literal", p.cols.Name(col))
	case v.isFloat || kind == flood.KindFloat64:
		if kind != flood.KindFloat64 {
			return 0, p.errAt(v.tok, "float literal on non-float column %q", p.cols.Name(col))
		}
		sc := p.schema.Scaler(p.cols.Name(col))
		if sc == nil {
			return 0, p.errAt(v.tok, "column %q has no fitted scaler yet (build the table first)", p.cols.Name(col))
		}
		lo, hi := sc.EncodeLower(v.f), sc.EncodeUpper(v.f)
		if lo != hi {
			return 0, p.errAt(v.tok, "value %v is not representable in column %q's scale", v.f, p.cols.Name(col))
		}
		return lo, nil
	default:
		// Int64 columns, and time columns assigned as raw ticks.
		return v.i, nil
	}
}

// limitClause parses `LIMIT n`. The count must be a positive integer —
// LIMIT 0 would make every statement a no-op and a negative limit has no
// meaning, so both are rejected where they appear — and the clause only
// attaches to projections: an aggregate produces a single row, so a LIMIT
// there is almost certainly a misplaced intent to bound the scan.
func (p *parser) limitClause(st *Statement) error {
	limTok := p.lex.tok
	p.lex.next()
	numTok := p.lex.tok
	if numTok.kind != tokNumber || strings.Contains(numTok.text, ".") {
		return p.errAt(numTok, "LIMIT needs an integer row count")
	}
	n, err := strconv.ParseInt(strings.ReplaceAll(numTok.text, "_", ""), 10, 64)
	if err != nil {
		return p.errAt(numTok, "bad LIMIT count: %v", err)
	}
	if n <= 0 {
		return p.errAt(numTok, "LIMIT must be positive, got %d", n)
	}
	if n > int64(^uint(0)>>1) {
		return p.errAt(numTok, "LIMIT %d overflows", n)
	}
	if st.Agg != "select" {
		return p.errAt(limTok, "LIMIT applies to projections, not aggregates")
	}
	p.lex.next()
	st.Limit = int(n)
	return nil
}

// target parses the SELECT list: an aggregate call, *, or a column list.
func (p *parser) target(st *Statement) error {
	// SELECT * FROM ...
	if p.lex.tok.isSymbol("*") {
		if p.schema == nil {
			return p.errAt(p.lex.tok, "projection needs a typed schema; parse with ParseTyped")
		}
		p.lex.next()
		st.Agg = "select"
		st.Projection = make([]string, p.cols.NumCols())
		for i := range st.Projection {
			st.Projection[i] = p.cols.Name(i)
		}
		return nil
	}
	firstTok := p.lex.tok
	first, err := p.ident()
	if err != nil {
		return err
	}
	if p.lex.tok.isSymbol("(") {
		for _, agg := range [...]string{"count", "sum", "min", "max"} {
			if strings.EqualFold(first, agg) {
				st.Agg = agg
			}
		}
		if st.Agg == "" {
			return p.errAt(firstTok, "unsupported aggregate %q (want COUNT, SUM, MIN, or MAX)", first)
		}
		p.lex.next()
		if st.Agg == "count" {
			if err := p.symbol("*"); err != nil {
				return err
			}
		} else {
			colTok := p.lex.tok
			col, err := p.column()
			if err != nil {
				return err
			}
			// Aggregating an encoded column must be meaningful in the
			// logical domain: dictionary codes never are; time ticks sum
			// to nothing sensible (MIN/MAX are fine).
			switch p.kindOf(col) {
			case flood.KindString:
				return p.errAt(colTok, "cannot aggregate string column %q", p.cols.Name(col))
			case flood.KindTime:
				if st.Agg == "sum" {
					return p.errAt(colTok, "cannot SUM time column %q", p.cols.Name(col))
				}
			}
			st.AggCol = col
		}
		return p.symbol(")")
	}
	if p.schema == nil {
		return p.errAt(firstTok, "projection needs a typed schema; parse with ParseTyped")
	}
	// Projection list: first is a column name; more follow after commas.
	st.Agg = "select"
	col, err := p.resolve(first, firstTok)
	if err != nil {
		return err
	}
	st.Projection = append(make([]string, 0, p.cols.NumCols()), p.cols.Name(col))
	for p.lex.tok.isSymbol(",") {
		p.lex.next()
		col, err := p.column()
		if err != nil {
			return err
		}
		st.Projection = append(st.Projection, p.cols.Name(col))
	}
	return nil
}

// orExpr returns the predicate as a DNF list of conjunctive queries.
func (p *parser) orExpr() ([]flood.Query, error) {
	out, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword(kwOr) {
		p.lex.next()
		rhs, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, rhs...)
	}
	return out, nil
}

// andExpr parses a conjunction into its DNF. It starts from one unfiltered
// rectangle and narrows it in place, atom by atom; only an atom that is
// itself a disjunction (a parenthesised OR, an IN list) makes more
// rectangles. A contradictory conjunction yields one unsatisfiable
// rectangle, so the statement still executes (to an empty result).
func (p *parser) andExpr() ([]flood.Query, error) {
	out := []flood.Query{flood.NewQuery(p.cols.NumCols())}
	for {
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		if a.dnf == nil {
			out = narrow(out, a.col, a.lo, a.hi)
		} else {
			out = distribute(out, a.dnf)
		}
		if !p.isKeyword(kwAnd) {
			break
		}
		p.lex.next()
	}
	if len(out) == 0 {
		return []flood.Query{p.unsatisfiable()}, nil
	}
	return out, nil
}

// narrow intersects dimension col of every rectangle with [lo, hi] in place,
// dropping the rectangles the intersection empties.
func narrow(rects []flood.Query, col int, lo, hi int64) []flood.Query {
	kept := rects[:0]
	for _, q := range rects {
		r := &q.Ranges[col]
		if lo > r.Min {
			r.Min = lo
		}
		if hi < r.Max {
			r.Max = hi
		}
		r.Present = true
		if r.Min <= r.Max {
			kept = append(kept, q)
		}
	}
	return kept
}

// narrowBy intersects every rectangle with b in place, as narrow does.
func narrowBy(rects []flood.Query, b flood.Query) []flood.Query {
	for d, r := range b.Ranges {
		if r.Present {
			rects = narrow(rects, d, r.Min, r.Max)
		}
	}
	return rects
}

// distribute intersects every rectangle of as with every rectangle of bs:
// (A1 ∨ A2) ∧ (B1 ∨ B2) = ∨_{i,j} (Ai ∧ Bj). A single b narrows as in place;
// more than one needs a copy of each a per b.
func distribute(as, bs []flood.Query) []flood.Query {
	if len(bs) == 1 {
		return narrowBy(as, bs[0])
	}
	var out []flood.Query
	for _, a := range as {
		for _, b := range bs {
			one := []flood.Query{{Ranges: append([]flood.Range(nil), a.Ranges...)}}
			out = append(out, narrowBy(one, b)...)
		}
	}
	return out
}

func (p *parser) unsatisfiable() flood.Query {
	q := flood.NewQuery(p.cols.NumCols())
	q.Ranges[0] = flood.Range{Min: 1, Max: 0, Present: true}
	return q
}

// value is one parsed literal.
type value struct {
	tok     token
	i       int64
	f       float64
	s       string
	kind    tokenKind // tokNumber (i, and f when isFloat) or tokString (s)
	isFloat bool
}

func (p *parser) value() (value, error) {
	tok := p.lex.tok
	switch tok.kind {
	case tokNumber:
		t := strings.ReplaceAll(tok.text, "_", "")
		p.lex.next()
		if strings.Contains(t, ".") {
			f, err := strconv.ParseFloat(t, 64)
			if err != nil {
				return value{}, p.errAt(tok, "bad number: %v", err)
			}
			return value{tok: tok, f: f, kind: tokNumber, isFloat: true}, nil
		}
		v, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return value{}, p.errAt(tok, "bad number: %v", err)
		}
		return value{tok: tok, i: v, f: float64(v), kind: tokNumber}, nil
	case tokString:
		p.lex.next()
		return value{tok: tok, s: tok.text, kind: tokString}, nil
	}
	return value{}, p.errAt(tok, "expected a literal value")
}

// atom is one parsed predicate atom: an inclusive range [lo, hi] on a single
// column (lo > hi when nothing can satisfy it), or, when dnf is non-nil, a
// disjunction of rectangles from a parenthesised predicate or an IN list.
type atom struct {
	col    int
	lo, hi int64
	dnf    []flood.Query
}

func (p *parser) atom() (atom, error) {
	if p.lex.tok.isSymbol("(") {
		p.lex.next()
		inner, err := p.orExpr()
		if err != nil {
			return atom{}, err
		}
		return atom{dnf: inner}, p.symbol(")")
	}
	colTok := p.lex.tok
	col, err := p.column()
	if err != nil {
		return atom{}, err
	}
	a := atom{col: col}
	switch {
	case p.isKeyword(kwBetween):
		p.lex.next()
		lo, err := p.value()
		if err != nil {
			return atom{}, err
		}
		if err := p.keyword(kwAnd); err != nil {
			return atom{}, err
		}
		hi, err := p.value()
		if err != nil {
			return atom{}, err
		}
		a.lo, a.hi, err = p.betweenBounds(col, lo, hi)
		return a, err
	case p.isKeyword(kwLike):
		p.lex.next()
		pat, err := p.value()
		if err != nil {
			return atom{}, err
		}
		a.lo, a.hi, err = p.likeBounds(col, colTok, pat)
		return a, err
	case p.isKeyword(kwIn):
		p.lex.next()
		return p.inList(col)
	}
	if p.lex.tok.kind != tokSymbol || !isCompareOp(p.lex.tok.text) {
		return atom{}, p.errAt(p.lex.tok, "expected comparison operator")
	}
	op := p.lex.tok.text
	p.lex.next()
	v, err := p.value()
	if err != nil {
		return atom{}, err
	}
	a.lo, a.hi, err = p.compareBounds(col, op, v)
	return a, err
}

// inList parses the parenthesised value list of `col IN (v, ...)` into one
// equality rectangle per value the column can hold.
func (p *parser) inList(col int) (atom, error) {
	if err := p.symbol("("); err != nil {
		return atom{}, err
	}
	a := atom{col: col, lo: 1, hi: 0}
	for {
		v, err := p.value()
		if err != nil {
			return atom{}, err
		}
		lo, hi, err := p.compareBounds(col, "=", v)
		if err != nil {
			return atom{}, err
		}
		if lo <= hi {
			q := flood.NewQuery(p.cols.NumCols())
			q.Ranges[col] = flood.Range{Min: lo, Max: hi, Present: true}
			a.dnf = append(a.dnf, q)
		}
		if !p.lex.tok.isSymbol(",") {
			break
		}
		p.lex.next()
	}
	return a, p.symbol(")")
}

func isCompareOp(s string) bool {
	switch s {
	case "=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// intBounds converts (op, integer literal) to an inclusive physical range.
// Strict comparisons against the extreme int64 values return an inverted
// (unsatisfiable) range instead of wrapping around the domain.
func intBounds(op string, v int64) (lo, hi int64) {
	switch op {
	case "=":
		return v, v
	case "<":
		if v == flood.NegInf {
			return 1, 0
		}
		return flood.NegInf, v - 1
	case "<=":
		return flood.NegInf, v
	case ">":
		if v == flood.PosInf {
			return 1, 0
		}
		return v + 1, flood.PosInf
	default: // ">="
		return v, flood.PosInf
	}
}

// compareBounds returns the inclusive physical range of `col op literal`
// (inverted when nothing can satisfy it), dispatching on the column's logical
// kind when a schema is present.
func (p *parser) compareBounds(col int, op string, v value) (lo, hi int64, err error) {
	kind := p.kindOf(col)
	switch {
	case v.kind == tokString:
		if kind != flood.KindString {
			return 0, 0, p.errAt(v.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d := p.schema.Dictionary(p.cols.Name(col))
		if d == nil {
			return 0, 0, p.errAt(v.tok, "column %q has no fitted dictionary yet (build the table first)", p.cols.Name(col))
		}
		lo, hi = 0, int64(d.Len())-1
		switch op {
		case "=":
			c, ok := d.Code(v.s)
			if !ok {
				return 1, 0, nil
			}
			lo, hi = c, c
		case "<":
			hi = d.LowerBound(v.s) - 1
		case "<=":
			hi = d.UpperBound(v.s) - 1
		case ">":
			lo = d.UpperBound(v.s)
		case ">=":
			lo = d.LowerBound(v.s)
		}
		return lo, hi, nil
	case v.isFloat && kind != flood.KindFloat64:
		return 0, 0, p.errAt(v.tok, "float literal on non-float column %q", p.cols.Name(col))
	case kind == flood.KindFloat64:
		// A float literal, or an integer literal treated as a float endpoint.
		return p.floatBounds(col, op, v.f, v.tok)
	case kind == flood.KindString:
		return 0, 0, p.errAt(v.tok, "string column %q needs a string literal", p.cols.Name(col))
	default:
		// Int64 columns, and time columns compared as raw ticks.
		lo, hi = intBounds(op, v.i)
		return lo, hi, nil
	}
}

// floatBounds encodes a float comparison through the column's decimal
// scaler with conservative directed rounding: lo is the smallest code whose
// decoded value is >= v, hi the largest <= v; they coincide exactly when v
// lands on a representable code, which is what strict bounds and equality
// pivot on.
func (p *parser) floatBounds(col int, op string, v float64, tok token) (int64, int64, error) {
	sc := p.schema.Scaler(p.cols.Name(col))
	if sc == nil {
		return 0, 0, p.errAt(tok, "column %q has no fitted scaler yet (build the table first)", p.cols.Name(col))
	}
	lo, hi := sc.EncodeLower(v), sc.EncodeUpper(v)
	exact := lo == hi
	switch op {
	case "=":
		if !exact {
			return 1, 0, nil
		}
		return lo, lo, nil
	case "<=":
		return flood.NegInf, hi, nil
	case ">=":
		return lo, flood.PosInf, nil
	case "<":
		if exact {
			if hi == flood.NegInf { // endpoint clamped at the domain floor
				return 1, 0, nil
			}
			hi--
		}
		return flood.NegInf, hi, nil
	default: // ">"
		if exact {
			if lo == flood.PosInf { // endpoint clamped at the domain ceiling
				return 1, 0, nil
			}
			lo++
		}
		return lo, flood.PosInf, nil
	}
}

// betweenBounds returns the physical range of `col BETWEEN lo AND hi`.
func (p *parser) betweenBounds(col int, lo, hi value) (int64, int64, error) {
	kind := p.kindOf(col)
	switch {
	case lo.kind == tokString || hi.kind == tokString:
		if lo.kind != tokString || hi.kind != tokString {
			return 0, 0, p.errAt(hi.tok, "BETWEEN endpoints must share a type")
		}
		if kind != flood.KindString {
			return 0, 0, p.errAt(lo.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d := p.schema.Dictionary(p.cols.Name(col))
		if d == nil {
			return 0, 0, p.errAt(lo.tok, "column %q has no fitted dictionary yet (build the table first)", p.cols.Name(col))
		}
		l, h, ok := d.RangeFor(lo.s, hi.s)
		if !ok {
			return 1, 0, nil
		}
		return l, h, nil
	case lo.isFloat || hi.isFloat || kind == flood.KindFloat64:
		if kind != flood.KindFloat64 {
			return 0, 0, p.errAt(lo.tok, "float literal on non-float column %q", p.cols.Name(col))
		}
		sc := p.schema.Scaler(p.cols.Name(col))
		if sc == nil {
			return 0, 0, p.errAt(lo.tok, "column %q has no fitted scaler yet (build the table first)", p.cols.Name(col))
		}
		return sc.EncodeLower(lo.f), sc.EncodeUpper(hi.f), nil
	case kind == flood.KindString:
		return 0, 0, p.errAt(lo.tok, "string column %q needs string literals", p.cols.Name(col))
	default:
		// Int64 columns, and time columns bounded by raw ticks.
		return lo.i, hi.i, nil
	}
}

// likeBounds returns the physical range of `col LIKE 'prefix%'`; only prefix
// patterns (a literal followed by a single trailing %) are supported.
func (p *parser) likeBounds(col int, colTok token, pat value) (int64, int64, error) {
	if pat.kind != tokString {
		return 0, 0, p.errAt(pat.tok, "LIKE needs a string pattern")
	}
	if p.kindOf(col) != flood.KindString {
		return 0, 0, p.errAt(colTok, "LIKE on non-string column %q", p.cols.Name(col))
	}
	prefix, ok := strings.CutSuffix(pat.s, "%")
	if !ok || strings.ContainsAny(prefix, "%_") {
		return 0, 0, p.errAt(pat.tok, "only prefix LIKE patterns ('abc%%') are supported")
	}
	d := p.schema.Dictionary(p.cols.Name(col))
	if d == nil {
		return 0, 0, p.errAt(pat.tok, "column %q has no fitted dictionary yet (build the table first)", p.cols.Name(col))
	}
	l, h, ok := d.PrefixRange(prefix)
	if !ok {
		return 1, 0, nil
	}
	return l, h, nil
}

// kindOf returns the logical kind of col (KindInt64 when parsing against a
// raw table).
func (p *parser) kindOf(col int) flood.Kind {
	if p.schema == nil {
		return flood.KindInt64
	}
	return p.schema.KindAt(col)
}

func (p *parser) keyword(kw keyword) error {
	if !p.isKeyword(kw) {
		return p.errAt(p.lex.tok, "expected %s", keywordNames[kw])
	}
	p.lex.next()
	return nil
}

func (p *parser) isKeyword(kw keyword) bool { return p.lex.tok.kw == kw }

func (p *parser) symbol(s string) error {
	if !p.lex.tok.isSymbol(s) {
		return p.errAt(p.lex.tok, "expected %q", s)
	}
	p.lex.next()
	return nil
}

func (p *parser) ident() (string, error) {
	if p.lex.tok.kind != tokIdent {
		return "", p.errAt(p.lex.tok, "expected identifier")
	}
	t := p.lex.tok.text
	p.lex.next()
	return t, nil
}

// column parses an identifier (optionally qualified, e.g. R.price) and
// resolves it against the table or schema.
func (p *parser) column() (int, error) {
	tok := p.lex.tok
	name, err := p.ident()
	if err != nil {
		return 0, err
	}
	return p.resolve(name, tok)
}

// resolve maps a (possibly qualified) column name to its index.
func (p *parser) resolve(name string, tok token) (int, error) {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	col := p.cols.ColumnIndex(name)
	if col < 0 {
		return 0, p.errAt(tok, "unknown column %q", name)
	}
	return col, nil
}
