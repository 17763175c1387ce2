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
// multiple queries over disjoint attribute ranges"). A predicate whose normal
// form would pass MaxDisjuncts rectangles, or whose rectangles would cut into
// more than MaxPieces disjoint pieces, is refused at parse time.
// Projections return a *flood.Rows cursor via Statement.Select.
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
	"slices"
	"strconv"
	"strings"

	flood "flood"
	"flood/internal/encode"
	"flood/internal/query"
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
	// (resolved; SELECT * expands to every column in schema order). It is
	// informational: Select projects the column positions resolved at parse
	// time, which editing Projection does not change.
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
	proj       []int         // Projection's column positions
}

// MaxDisjuncts is the most rectangles a WHERE clause may expand to in
// disjunctive normal form. An OR chain, an IN list, or an AND of
// disjunctions that would pass it is refused with a positioned parse error
// before the rectangles are built: a product of n two-way ORs is 2^n
// rectangles, so a statement of a few hundred bytes could otherwise ask for
// gigabytes.
const MaxDisjuncts = 1024

// MaxPieces bounds the disjoint decomposition of a WHERE clause of more than
// one rectangle, which is what executing an OR runs (flood.ExecuteOr): n
// slabs crossing in k columns cut about (n/k)^k pieces, so a clause well
// within MaxDisjuncts could still ask for millions. The parser decomposes
// such a clause once and refuses it with a positioned error as soon as it
// has cut more than MaxPieces pieces or compared more than maxPairs pairs of
// rectangles.
const MaxPieces = 1 << 14

// maxPairs is the rectangle comparisons the MaxPieces check allows: a
// 1,024-value IN list takes about half of them, crossing slabs pass it in
// tens of milliseconds.
const maxPairs = 1 << 21

// Parse compiles a SQL string against tbl's raw int64 schema. Only integer
// literals are accepted; use ParseTyped for float and string predicates and
// typed projections.
func Parse(sql string, tbl *flood.Table) (*Statement, error) {
	var p parser
	p.lex.src, p.cols = sql, tbl
	return p.run()
}

// ParseTyped compiles a SQL string against a typed schema (fitted by its
// TableBuilder), resolving float and string literals through the schema's
// encoders. Projections decode through the same schema when executed.
func ParseTyped(sql string, schema *flood.Schema) (*Statement, error) {
	var p parser
	p.lex.src, p.cols, p.schema = sql, schema, schema
	return p.run()
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
	return s.schema.SelectColumns(ctx, idx, qs, &flood.QueryOptions{Limit: s.Limit}, s.proj)
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
	tokString // '...' literal
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
	kwCount
	kwSum
	kwMin
	kwMax
	// kwQualified marks an identifier with a qualifier (R.price), which no
	// keyword has; resolve strips the qualifier only then.
	kwQualified
)

var keywordNames = [...]string{
	kwSelect: "SELECT", kwInsert: "INSERT", kwDelete: "DELETE", kwUpdate: "UPDATE",
	kwFrom: "FROM", kwWhere: "WHERE", kwLimit: "LIMIT", kwInto: "INTO",
	kwValues: "VALUES", kwSet: "SET", kwAnd: "AND", kwOr: "OR",
	kwBetween: "BETWEEN", kwLike: "LIKE", kwIn: "IN",
	kwCount: "COUNT", kwSum: "SUM", kwMin: "MIN", kwMax: "MAX",
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
// to upper case by clearing bit 0x20; no digit or '_' folds to a letter, so
// only a keyword's own spelling packs to its key.
func packUpper(s string) uint64 {
	var k uint64
	for i := 0; i < len(s); i++ {
		k = k<<8 | uint64(s[i]&^0x20)
	}
	return k
}

// keywordOf returns the keyword an unqualified identifier of n bytes spells,
// given key, its last eight bytes as packUpper packs them.
func keywordOf(key uint64, n int) keyword {
	if n >= len(keywordsByLen) {
		return kwNone
	}
	for _, c := range keywordsByLen[n] {
		if c.key == key {
			return c.kw
		}
	}
	return kwNone
}

// The two-byte comparison operators as a token's sym; letters never lex as
// symbols, so neither can be mistaken for one.
const (
	symLE = 'l' // <=
	symGE = 'g' // >=
)

// Token flags: what a number or string literal holds beyond the common case,
// noted by the lexer so the parser converts the common case straight from
// the source bytes.
const (
	numDot        = 1 << iota // a decimal point: a float literal
	numUnderscore             // digit separators to drop
	strEscaped                // a doubled quote to undo
)

// token is one lexeme, located in the source rather than copied out of it.
// It has four fields so the compiler keeps it in registers and stores and
// loads it field by field: built in memory a byte at a time and copied as
// words, a token cost a store-forwarding stall at every copy.
type token struct {
	kind tokenKind
	// detail is what the token is beyond its kind: the keyword an
	// identifier spells (kwNone if none), a symbol's punctuation byte
	// (symLE / symGE for the two-byte operators), a literal's numDot,
	// numUnderscore and strEscaped flags.
	detail uint8
	off    int // byte offset of the token's first character
	end    int // byte offset just past its last
}

// is reports whether t is the punctuation c.
func (t token) is(c byte) bool { return t.kind == tokSymbol && t.detail == c }

// kw is the keyword t spells, kwNone when it is not an identifier.
func (t token) kw() keyword {
	if t.kind != tokIdent {
		return kwNone
	}
	return keyword(t.detail)
}

type lexer struct {
	src string
	pos int
	tok token
	err error // first lexical error (unterminated string)
}

func (l *lexer) next() {
	src, pos := l.src, l.pos
	for pos < len(src) && src[pos] <= ' ' && isSpace(src[pos]) {
		pos++
	}
	start := pos
	kind, detail := tokEOF, uint8(0)
	if pos < len(src) {
		switch c := src[pos]; {
		case isAlpha(c):
			// One pass classes the bytes and packs them for keywordOf.
			var classes uint8
			var key uint64
			for ; pos < len(src); pos++ {
				c := src[pos]
				cl := identClass[c]
				if cl == 0 {
					break
				}
				classes |= cl
				key = key<<8 | uint64(c&^0x20)
			}
			kind, detail = tokIdent, uint8(kwQualified)
			if classes&identDot == 0 {
				detail = uint8(keywordOf(key, pos-start))
			}
		case isDigit(c) || (c == '-' && pos+1 < len(src) && isDigit(src[pos+1])):
			kind = tokNumber
			for pos++; pos < len(src); pos++ {
				if c := src[pos]; c == '_' {
					detail |= numUnderscore
				} else if !isDigit(c) {
					break
				}
			}
			if pos+1 < len(src) && src[pos] == '.' && isDigit(src[pos+1]) {
				detail |= numDot
				pos++
				for pos < len(src) && isDigit(src[pos]) {
					pos++
				}
			}
		case c == '\'':
			kind, pos, detail = l.stringLiteral(start)
		case (c == '<' || c == '>') && pos+1 < len(src) && src[pos+1] == '=':
			kind, detail = tokSymbol, symLE
			if c == '>' {
				detail = symGE
			}
			pos += 2
		default:
			kind, detail = tokSymbol, c
			pos++
		}
	}
	l.pos = pos
	l.tok = token{kind: kind, detail: detail, off: start, end: pos}
}

// stringLiteral scans a quoted literal from its opening quote at start to
// just past its closing one, noting whether it holds a doubled-quote escape
// (the only case whose value is not a slice of the source). An unterminated
// literal records the lexical error and lexes as the end of input.
func (l *lexer) stringLiteral(start int) (tokenKind, int, uint8) {
	var flag uint8
	pos := start + 1
	for {
		i := strings.IndexByte(l.src[pos:], '\'')
		if i < 0 {
			if l.err == nil {
				l.err = fmt.Errorf("at byte %d: unterminated string literal", start)
			}
			return tokEOF, len(l.src), 0
		}
		pos += i + 1
		if pos >= len(l.src) || l.src[pos] != '\'' {
			return tokString, pos, flag
		}
		flag |= strEscaped
		pos++
	}
}

// text is t's source text; for a string literal, its value: the quotes
// stripped and doubled quotes undone.
func (l *lexer) text(t token) string {
	if t.kind != tokString {
		return l.src[t.off:t.end]
	}
	s := l.src[t.off+1 : t.end-1]
	if t.detail&strEscaped != 0 {
		s = strings.ReplaceAll(s, "''", "'")
	}
	return s
}

// describe renders t for error messages.
func (l *lexer) describe(t token) string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", l.text(t))
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// identClass classes the bytes that continue an identifier: identWord for
// letters, digits and '_', identDot for the '.' of a qualified name, 0 for
// every byte that ends one.
var identClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case isAlpha(byte(c)) || isDigit(byte(c)) || c == '_':
			t[c] = identWord
		case c == '.':
			t[c] = identDot
		}
	}
	return t
}()

const (
	identWord = 1 << iota
	identDot
)

// smallInt reads an integer literal of at most 18 digits — too few to
// overflow — straight from its bytes, skipping '_' separators. A longer one
// reports !ok and goes through strconv, whose range error the parser quotes.
func smallInt(s string) (v int64, ok bool) {
	neg := s[0] == '-'
	if neg {
		s = s[1:]
	}
	digits := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '_' {
			continue
		}
		if digits++; digits > 18 {
			return 0, false
		}
		v = v*10 + int64(s[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// parseInt converts an integer literal token's text.
func parseInt(text string, flags uint8) (int64, error) {
	if v, ok := smallInt(text); ok {
		return v, nil
	}
	if flags&numUnderscore != 0 {
		text = strings.ReplaceAll(text, "_", "")
	}
	return strconv.ParseInt(text, 10, 64)
}

// --- parser ---

type parser struct {
	lex    lexer
	cols   columns
	schema *flood.Schema // nil when parsing against a raw table
	nDims  int
	block  *stmtBlock // the statement's storage; nil when the table is wider
}

// inlineCols is the widest table whose statements keep their first
// rectangle's ranges and their projection inside the statement's own
// allocation.
const inlineCols = 8

// stmtBlock is a Statement together with what a single-rectangle statement
// over at most inlineCols columns needs besides: the rectangle list, its
// ranges, and the projection's names and positions. Parsing such a
// statement allocates this block and nothing else.
type stmtBlock struct {
	st     Statement
	rect   [1]flood.Query
	ranges [inlineCols]flood.Range
	names  [inlineCols]string
	cols   [inlineCols]int
}

func (p *parser) run() (*Statement, error) {
	p.nDims = p.cols.NumCols()
	p.lex.next()
	st, err := p.statement()
	if err != nil {
		return nil, fmt.Errorf("floodsql: %w", err)
	}
	return st, nil
}

// newStatement starts the statement being parsed, in a stmtBlock when the
// table fits one.
func (p *parser) newStatement(agg string) *Statement {
	var st *Statement
	if p.nDims > inlineCols {
		st = new(Statement)
	} else {
		p.block = new(stmtBlock)
		st = &p.block.st
	}
	st.Agg, st.AggCol, st.nDims, st.schema = agg, -1, p.nDims, p.schema
	return st
}

// rectangle returns a list of one unfiltered rectangle: the statement
// block's on first use, a fresh one after that.
func (p *parser) rectangle() []flood.Query {
	b := p.block
	if b == nil || b.rect[0].Ranges != nil {
		return []flood.Query{flood.NewQuery(p.nDims)}
	}
	r := b.ranges[:p.nDims:p.nDims]
	for i := range r {
		r[i] = flood.Range{Min: flood.NegInf, Max: flood.PosInf}
	}
	b.rect[0] = flood.Query{Ranges: r}
	return b.rect[:]
}

// projection returns empty name and position lists for a projection, backed
// by the statement block when there is one.
func (p *parser) projection() ([]string, []int) {
	if b := p.block; b != nil {
		return b.names[:0], b.cols[:0]
	}
	return make([]string, 0, p.nDims), make([]int, 0, p.nDims)
}

// errAt is the shared error constructor: every parse error pins the byte
// offset and the offending token, so malformed WHERE clauses point at the
// exact spot.
func (p *parser) errAt(tok token, format string, args ...any) error {
	if p.lex.err != nil {
		return p.lex.err
	}
	return fmt.Errorf("at byte %d near %s: %s", tok.off, p.lex.describe(tok), fmt.Sprintf(format, args...))
}

// tooMany is the error for a predicate that would expand past MaxDisjuncts.
func (p *parser) tooMany(tok token) error {
	return p.errAt(tok, "predicate expands to more than %d rectangles (MaxDisjuncts)", MaxDisjuncts)
}

func (p *parser) statement() (*Statement, error) {
	switch p.lex.tok.kw() {
	case kwDelete:
		return p.deleteStatement()
	case kwUpdate:
		return p.updateStatement()
	case kwInsert:
		return p.insertStatement()
	case kwSelect:
	default:
		return nil, p.errAt(p.lex.tok, "expected SELECT, INSERT, DELETE, or UPDATE")
	}
	p.lex.next()
	st := p.newStatement("")
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
	if p.atEnd() {
		return st, nil
	}
	if p.isKeyword(kwWhere) {
		if err := p.where(st); err != nil {
			return nil, err
		}
	} else if !p.isKeyword(kwLimit) {
		return nil, p.errAt(p.lex.tok, "expected WHERE")
	}
	if p.isKeyword(kwLimit) {
		if err := p.limitClause(st); err != nil {
			return nil, err
		}
	}
	return p.end(st)
}

// atEnd reports whether the statement ended cleanly.
func (p *parser) atEnd() bool { return p.lex.tok.kind == tokEOF && p.lex.err == nil }

// end finishes st, rejecting trailing input.
func (p *parser) end(st *Statement) (*Statement, error) {
	if !p.atEnd() {
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
	st := p.newStatement("delete")
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	return p.optionalWhere(st)
}

// updateStatement parses `UPDATE table SET col = lit, ... [WHERE pred]`.
func (p *parser) updateStatement() (*Statement, error) {
	p.lex.next()
	st := p.newStatement("update")
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.keyword(kwSet); err != nil {
		return nil, err
	}
	for {
		col, err := p.column()
		if err != nil {
			return nil, err
		}
		if err := p.symbol('='); err != nil {
			return nil, err
		}
		var v value
		if err := p.value(&v); err != nil {
			return nil, err
		}
		enc, err := p.encodeAssign(col, &v)
		if err != nil {
			return nil, err
		}
		st.Assignments = append(st.Assignments, flood.Assignment{Col: col, Value: enc})
		if !p.lex.tok.is(',') {
			break
		}
		p.lex.next()
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
	st := p.newStatement("insert")
	var err error
	if st.Table, err = p.ident(); err != nil {
		return nil, err
	}
	// Optional column list: a permutation of all columns.
	order := make([]int, 0, st.nDims)
	if p.lex.tok.is('(') {
		p.lex.next()
		for {
			colTok := p.lex.tok
			col, err := p.column()
			if err != nil {
				return nil, err
			}
			if slices.Contains(order, col) {
				return nil, p.errAt(colTok, "column %q listed twice", p.cols.Name(col))
			}
			order = append(order, col)
			if !p.lex.tok.is(',') {
				break
			}
			p.lex.next()
		}
		if err := p.symbol(')'); err != nil {
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
		if err := p.symbol('('); err != nil {
			return nil, err
		}
		row := make([]int64, st.nDims)
		for i, col := range order {
			var v value
			if err := p.value(&v); err != nil {
				return nil, err
			}
			if row[col], err = p.encodeAssign(col, &v); err != nil {
				return nil, err
			}
			if i < len(order)-1 {
				if err := p.symbol(','); err != nil {
					return nil, err
				}
			}
		}
		if err := p.symbol(')'); err != nil {
			return nil, err
		}
		st.InsertRows = append(st.InsertRows, row)
		if !p.lex.tok.is(',') {
			break
		}
		p.lex.next()
	}
	return p.end(st)
}

// optionalWhere parses the optional WHERE clause of a mutation statement and
// rejects trailing input. Mutations take no LIMIT: "delete some of the
// matches" has no deterministic meaning.
func (p *parser) optionalWhere(st *Statement) (*Statement, error) {
	if p.isKeyword(kwWhere) {
		if err := p.where(st); err != nil {
			return nil, err
		}
	}
	return p.end(st)
}

// where parses `WHERE pred` into st.Disjuncts, refusing a predicate of more
// than one rectangle whose disjoint decomposition passes MaxPieces.
func (p *parser) where(st *Statement) error {
	p.lex.next()
	predTok := p.lex.tok
	rects, err := p.orExpr()
	if err != nil {
		return err
	}
	if len(rects) > 1 && !query.Decomposable(rects, MaxPieces, maxPairs) {
		return p.errAt(predTok, "predicate decomposes into more than %d disjoint pieces (MaxPieces)", MaxPieces)
	}
	st.Disjuncts = rects
	return nil
}

// encodeAssign converts an assignment literal to the column's storage
// encoding: dictionary code for strings, scaled integer for floats (the value
// must land exactly on a representable code), raw int64 otherwise. Unlike
// predicates — where a miss just selects nothing — an assignment that cannot
// be represented exactly is an error, because storing a rounded neighbour
// would silently change the written value.
func (p *parser) encodeAssign(col int, v *value) (int64, error) {
	kind := p.kindOf(col)
	switch {
	case v.tok.kind == tokString:
		if kind != flood.KindString {
			return 0, p.errAt(v.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d, err := p.dictionary(col, v.tok)
		if err != nil {
			return 0, err
		}
		s := p.lex.text(v.tok)
		c, ok := d.Code(s)
		if !ok {
			return 0, p.errAt(v.tok, "value %q is not in column %q's dictionary", s, p.cols.Name(col))
		}
		return c, nil
	case kind == flood.KindString:
		return 0, p.errAt(v.tok, "string column %q needs a string literal", p.cols.Name(col))
	case v.isFloat || kind == flood.KindFloat64:
		if kind != flood.KindFloat64 {
			return 0, p.errAt(v.tok, "float literal on non-float column %q", p.cols.Name(col))
		}
		sc, err := p.scaler(col, v.tok)
		if err != nil {
			return 0, err
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
	if numTok.kind != tokNumber || numTok.detail&numDot != 0 {
		return p.errAt(numTok, "LIMIT needs an integer row count")
	}
	n, err := parseInt(p.lex.text(numTok), numTok.detail)
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

// aggregates names the aggregate each aggregate keyword calls.
var aggregates = [...]string{kwCount: "count", kwSum: "sum", kwMin: "min", kwMax: "max"}

// target parses the SELECT list: an aggregate call, *, or a column list.
func (p *parser) target(st *Statement) error {
	first := p.lex.tok
	if first.is('*') { // SELECT * FROM ...
		if p.schema == nil {
			return p.errAt(first, "projection needs a typed schema; parse with ParseTyped")
		}
		p.lex.next()
		st.Agg = "select"
		names, cols := p.projection()
		for i := 0; i < p.nDims; i++ {
			names, cols = append(names, p.schema.Name(i)), append(cols, i)
		}
		st.Projection, st.proj = names, cols
		return nil
	}
	if _, err := p.ident(); err != nil {
		return err
	}
	if p.lex.tok.is('(') {
		if kw := first.kw(); int(kw) < len(aggregates) {
			st.Agg = aggregates[kw]
		}
		if st.Agg == "" {
			return p.errAt(first, "unsupported aggregate %q (want COUNT, SUM, MIN, or MAX)", p.lex.text(first))
		}
		p.lex.next()
		if st.Agg == "count" {
			if err := p.symbol('*'); err != nil {
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
		return p.symbol(')')
	}
	if p.schema == nil {
		return p.errAt(first, "projection needs a typed schema; parse with ParseTyped")
	}
	// Projection list: first is a column name; more follow after commas.
	st.Agg = "select"
	col, err := p.resolve(first)
	if err != nil {
		return err
	}
	names, cols := p.projection()
	names, cols = append(names, p.schema.Name(col)), append(cols, col)
	for p.lex.tok.is(',') {
		p.lex.next()
		col, err := p.column()
		if err != nil {
			return err
		}
		names, cols = append(names, p.schema.Name(col)), append(cols, col)
	}
	st.Projection, st.proj = names, cols
	return nil
}

// orExpr returns the predicate as a DNF list of conjunctive queries.
func (p *parser) orExpr() ([]flood.Query, error) {
	out, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword(kwOr) {
		orTok := p.lex.tok
		p.lex.next()
		rhs, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		if len(out)+len(rhs) > MaxDisjuncts {
			return nil, p.tooMany(orTok)
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
	out := p.rectangle()
	for {
		atomTok := p.lex.tok
		a, err := p.atom()
		if err != nil {
			return nil, err
		}
		switch {
		case a.dnf == nil:
			out = narrow(out, a.col, a.lo, a.hi)
		case len(out)*len(a.dnf) > MaxDisjuncts:
			return nil, p.tooMany(atomTok)
		default:
			out = distribute(out, a.dnf)
		}
		if !p.isKeyword(kwAnd) {
			break
		}
		p.lex.next()
	}
	if len(out) == 0 {
		out = []flood.Query{flood.NewQuery(p.nDims)}
		out[0].Ranges[0] = flood.Range{Min: 1, Max: 0, Present: true}
	}
	return out, nil
}

// narrowRange intersects r with [lo, hi], reporting whether anything is
// left.
func narrowRange(r *flood.Range, lo, hi int64) bool {
	if lo > r.Min {
		r.Min = lo
	}
	if hi < r.Max {
		r.Max = hi
	}
	r.Present = true
	return r.Min <= r.Max
}

// narrow intersects dimension col of every rectangle with [lo, hi] in place,
// dropping the rectangles the intersection empties.
func narrow(rects []flood.Query, col int, lo, hi int64) []flood.Query {
	kept := rects[:0]
	for _, q := range rects {
		if narrowRange(&q.Ranges[col], lo, hi) {
			kept = append(kept, q)
		}
	}
	return kept
}

// intersect narrows q to b in place, reporting whether anything is left.
func intersect(q, b flood.Query) bool {
	for d, r := range b.Ranges {
		if r.Present && !narrowRange(&q.Ranges[d], r.Min, r.Max) {
			return false
		}
	}
	return true
}

// distribute intersects every rectangle of as with every rectangle of bs:
// (A1 ∨ A2) ∧ (B1 ∨ B2) = ∨_{i,j} (Ai ∧ Bj). A single b narrows as in place;
// more than one needs a copy of each a per b, all cut from one allocation.
func distribute(as, bs []flood.Query) []flood.Query {
	if len(bs) == 1 {
		kept := as[:0]
		for _, a := range as {
			if intersect(a, bs[0]) {
				kept = append(kept, a)
			}
		}
		return kept
	}
	if len(as) == 0 {
		return nil
	}
	n := len(as[0].Ranges)
	out := make([]flood.Query, 0, len(as)*len(bs))
	arena := make([]flood.Range, len(as)*len(bs)*n)
	for _, a := range as {
		for _, b := range bs {
			q := flood.Query{Ranges: arena[:n:n]}
			copy(q.Ranges, a.Ranges)
			if intersect(q, b) {
				out = append(out, q)
				arena = arena[n:]
			}
		}
	}
	return out
}

// value is one parsed literal: a number (i, and f; only f when isFloat) or,
// when tok is a tokString, a string the lexer's text of tok spells. It holds
// no pointer, so filling one in is plain stores.
type value struct {
	tok     token
	i       int64
	f       float64
	isFloat bool
}

// value parses the literal at the current token into v.
func (p *parser) value(v *value) error {
	tok := p.lex.tok
	switch tok.kind {
	case tokNumber:
		p.lex.next()
		*v = value{tok: tok}
		text := p.lex.text(tok)
		if tok.detail&numDot == 0 {
			i, err := parseInt(text, tok.detail)
			if err != nil {
				return p.errAt(tok, "bad number: %v", err)
			}
			v.i, v.f = i, float64(i)
			return nil
		}
		if tok.detail&numUnderscore != 0 {
			text = strings.ReplaceAll(text, "_", "")
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return p.errAt(tok, "bad number: %v", err)
		}
		v.f, v.isFloat = f, true
		return nil
	case tokString:
		p.lex.next()
		*v = value{tok: tok}
		return nil
	}
	return p.errAt(tok, "expected a literal value")
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
	if p.lex.tok.is('(') {
		p.lex.next()
		inner, err := p.orExpr()
		if err != nil {
			return atom{}, err
		}
		return atom{dnf: inner}, p.symbol(')')
	}
	colTok := p.lex.tok
	col, err := p.column()
	if err != nil {
		return atom{}, err
	}
	a := atom{col: col}
	switch p.lex.tok.kw() {
	case kwBetween:
		p.lex.next()
		var lo, hi value
		if err := p.value(&lo); err != nil {
			return atom{}, err
		}
		if err := p.keyword(kwAnd); err != nil {
			return atom{}, err
		}
		if err := p.value(&hi); err != nil {
			return atom{}, err
		}
		a.lo, a.hi, err = p.betweenBounds(col, &lo, &hi)
		return a, err
	case kwLike:
		p.lex.next()
		var pat value
		if err := p.value(&pat); err != nil {
			return atom{}, err
		}
		a.lo, a.hi, err = p.likeBounds(col, colTok, &pat)
		return a, err
	case kwIn:
		p.lex.next()
		return p.inList(col)
	}
	op := p.lex.tok
	if op.kind != tokSymbol || !isCompareOp(op.detail) {
		return atom{}, p.errAt(op, "expected comparison operator")
	}
	p.lex.next()
	var v value
	if err := p.value(&v); err != nil {
		return atom{}, err
	}
	a.lo, a.hi, err = p.compareBounds(col, op.detail, &v)
	return a, err
}

// inList parses the parenthesised value list of `col IN (v, ...)` into one
// equality rectangle per value the column can hold. A list of more than
// MaxDisjuncts values is refused at the first value past the bound.
func (p *parser) inList(col int) (atom, error) {
	if err := p.symbol('('); err != nil {
		return atom{}, err
	}
	a := atom{col: col, lo: 1, hi: 0}
	for n := 1; ; n++ {
		if n > MaxDisjuncts {
			return atom{}, p.tooMany(p.lex.tok)
		}
		var v value
		if err := p.value(&v); err != nil {
			return atom{}, err
		}
		lo, hi, err := p.compareBounds(col, '=', &v)
		if err != nil {
			return atom{}, err
		}
		if lo <= hi {
			q := flood.NewQuery(p.nDims)
			q.Ranges[col] = flood.Range{Min: lo, Max: hi, Present: true}
			a.dnf = append(a.dnf, q)
		}
		if !p.lex.tok.is(',') {
			break
		}
		p.lex.next()
	}
	return a, p.symbol(')')
}

func isCompareOp(op byte) bool {
	switch op {
	case '=', '<', symLE, '>', symGE:
		return true
	}
	return false
}

// intBounds converts (op, integer literal) to an inclusive physical range.
// Strict comparisons against the extreme int64 values return an inverted
// (unsatisfiable) range instead of wrapping around the domain.
func intBounds(op byte, v int64) (lo, hi int64) {
	switch op {
	case '=':
		return v, v
	case '<':
		if v == flood.NegInf {
			return 1, 0
		}
		return flood.NegInf, v - 1
	case symLE:
		return flood.NegInf, v
	case '>':
		if v == flood.PosInf {
			return 1, 0
		}
		return v + 1, flood.PosInf
	default: // symGE
		return v, flood.PosInf
	}
}

// compareBounds returns the inclusive physical range of `col op literal`
// (inverted when nothing can satisfy it), dispatching on the column's logical
// kind when a schema is present.
func (p *parser) compareBounds(col int, op byte, v *value) (lo, hi int64, err error) {
	kind := p.kindOf(col)
	switch {
	case v.tok.kind == tokString:
		if kind != flood.KindString {
			return 0, 0, p.errAt(v.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d, err := p.dictionary(col, v.tok)
		if err != nil {
			return 0, 0, err
		}
		s := p.lex.text(v.tok)
		lo, hi = 0, int64(d.Len())-1
		switch op {
		case '=':
			c, ok := d.Code(s)
			if !ok {
				return 1, 0, nil
			}
			lo, hi = c, c
		case '<':
			hi = d.LowerBound(s) - 1
		case symLE:
			hi = d.UpperBound(s) - 1
		case '>':
			lo = d.UpperBound(s)
		case symGE:
			lo = d.LowerBound(s)
		}
		return lo, hi, nil
	case v.isFloat && kind != flood.KindFloat64:
		return 0, 0, p.errAt(v.tok, "float literal on non-float column %q", p.cols.Name(col))
	case kind == flood.KindFloat64:
		// A float literal, or an integer literal treated as a float endpoint.
		return p.floatBounds(col, op, v)
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
func (p *parser) floatBounds(col int, op byte, v *value) (int64, int64, error) {
	sc, err := p.scaler(col, v.tok)
	if err != nil {
		return 0, 0, err
	}
	lo, hi := sc.EncodeLower(v.f), sc.EncodeUpper(v.f)
	exact := lo == hi
	switch op {
	case '=':
		if !exact {
			return 1, 0, nil
		}
		return lo, lo, nil
	case symLE:
		return flood.NegInf, hi, nil
	case symGE:
		return lo, flood.PosInf, nil
	case '<':
		if exact {
			if hi == flood.NegInf { // endpoint clamped at the domain floor
				return 1, 0, nil
			}
			hi--
		}
		return flood.NegInf, hi, nil
	default: // '>'
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
func (p *parser) betweenBounds(col int, lo, hi *value) (int64, int64, error) {
	kind := p.kindOf(col)
	switch {
	case lo.tok.kind == tokString || hi.tok.kind == tokString:
		if lo.tok.kind != tokString || hi.tok.kind != tokString {
			return 0, 0, p.errAt(hi.tok, "BETWEEN endpoints must share a type")
		}
		if kind != flood.KindString {
			return 0, 0, p.errAt(lo.tok, "string literal on non-string column %q", p.cols.Name(col))
		}
		d, err := p.dictionary(col, lo.tok)
		if err != nil {
			return 0, 0, err
		}
		l, h, ok := d.RangeFor(p.lex.text(lo.tok), p.lex.text(hi.tok))
		if !ok {
			return 1, 0, nil
		}
		return l, h, nil
	case lo.isFloat || hi.isFloat || kind == flood.KindFloat64:
		if kind != flood.KindFloat64 {
			return 0, 0, p.errAt(lo.tok, "float literal on non-float column %q", p.cols.Name(col))
		}
		sc, err := p.scaler(col, lo.tok)
		if err != nil {
			return 0, 0, err
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
func (p *parser) likeBounds(col int, colTok token, pat *value) (int64, int64, error) {
	if pat.tok.kind != tokString {
		return 0, 0, p.errAt(pat.tok, "LIKE needs a string pattern")
	}
	if p.kindOf(col) != flood.KindString {
		return 0, 0, p.errAt(colTok, "LIKE on non-string column %q", p.cols.Name(col))
	}
	prefix, ok := strings.CutSuffix(p.lex.text(pat.tok), "%")
	if !ok || strings.ContainsAny(prefix, "%_") {
		return 0, 0, p.errAt(pat.tok, "only prefix LIKE patterns ('abc%%') are supported")
	}
	d, err := p.dictionary(col, pat.tok)
	if err != nil {
		return 0, 0, err
	}
	l, h, ok := d.PrefixRange(prefix)
	if !ok {
		return 1, 0, nil
	}
	return l, h, nil
}

// dictionary returns string column col's fitted dictionary, or the error for
// a schema not fitted yet, positioned at tok.
func (p *parser) dictionary(col int, tok token) (*encode.Dictionary, error) {
	d := p.schema.DictionaryAt(col)
	if d == nil {
		return nil, p.errAt(tok, "column %q has no fitted dictionary yet (build the table first)", p.cols.Name(col))
	}
	return d, nil
}

// scaler returns float column col's fitted scaler, or the error for a
// schema not fitted yet, positioned at tok.
func (p *parser) scaler(col int, tok token) (*encode.DecimalScaler, error) {
	sc := p.schema.ScalerAt(col)
	if sc == nil {
		return nil, p.errAt(tok, "column %q has no fitted scaler yet (build the table first)", p.cols.Name(col))
	}
	return sc, nil
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

func (p *parser) isKeyword(kw keyword) bool { return p.lex.tok.kw() == kw }

func (p *parser) symbol(c byte) error {
	if !p.lex.tok.is(c) {
		return p.errAt(p.lex.tok, "expected %q", string(rune(c)))
	}
	p.lex.next()
	return nil
}

func (p *parser) ident() (string, error) {
	tok := p.lex.tok
	if tok.kind != tokIdent {
		return "", p.errAt(tok, "expected identifier")
	}
	p.lex.next()
	return p.lex.text(tok), nil
}

// column parses an identifier (optionally qualified, e.g. R.price) and
// resolves it against the table or schema.
func (p *parser) column() (int, error) {
	tok := p.lex.tok
	if _, err := p.ident(); err != nil {
		return 0, err
	}
	return p.resolve(tok)
}

// resolve maps the (possibly qualified) column name tok spells to its index.
func (p *parser) resolve(tok token) (int, error) {
	name := p.lex.text(tok)
	if tok.kw() == kwQualified {
		name = name[strings.LastIndexByte(name, '.')+1:]
	}
	col := p.cols.ColumnIndex(name)
	if col < 0 {
		return 0, p.errAt(tok, "unknown column %q", name)
	}
	return col, nil
}
