package flood

import (
	"fmt"
	"time"

	"flood/internal/encode"
)

// Kind enumerates the logical column types a Schema can describe. Physically
// every column is int64 (§7.1): floats are decimal-scaled, strings are
// dictionary-encoded, and timestamps are epoch ticks — the Kind records which
// encoding applies so queries and results can speak the logical type.
type Kind int

// The logical column kinds.
const (
	KindInt64 Kind = iota
	KindFloat64
	KindString
	KindTime
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// field is one schema column: its logical kind plus the fitted encoder that
// maps logical values to the physical int64 domain.
type field struct {
	name   string
	kind   Kind
	digits int // KindFloat64: fixed decimal digits; -1 infers at Build
	scaler *encode.DecimalScaler
	dict   *encode.Dictionary
	tcodec encode.TimeCodec
}

// Schema describes a table's logical column types and carries the fitted
// encoders (dictionaries, decimal scalers, time codec) that translate
// between logical values and the int64 domain the index operates on. Declare
// columns with the chaining constructors, load data through a TableBuilder,
// then use the schema everywhere a logical value crosses the API boundary:
// typed predicates (Where), typed row decoding (Rows accessors), SQL literal
// resolution (floodsql.ParseTyped), and row retrieval over any index
// (Schema.Select).
//
//	s := flood.NewSchema().Int64("ts").Float64("fare", 2).String("city")
//	b := s.NewTableBuilder()
//	b.AppendRow(int64(1000), 12.50, "nyc")
//	tbl, err := b.Build()
//
// Schema declaration mistakes (duplicate or unknown column names, kind
// mismatches) panic: they are programming errors in static schema and query
// construction, like a malformed regexp in regexp.MustCompile. Data errors
// (a value that does not fit an encoding) surface as errors from
// TableBuilder.Build.
//
// A Schema is fitted by the most recent TableBuilder.Build using it; fitted
// encoders are required for string predicates and typed decoding. Between
// fits a Schema is read-only and safe for concurrent use. Building another
// table with the same Schema REPLACES the fitted encoders: never refit a
// schema while indexes built from its earlier tables are still serving —
// give each independently-serving dataset its own Schema.
type Schema struct {
	fields []field
	byName map[string]int
}

// NewSchema returns an empty schema; chain column constructors onto it.
func NewSchema() *Schema { return &Schema{byName: make(map[string]int)} }

func (s *Schema) add(name string, f field) *Schema {
	if name == "" {
		panic("flood: schema column name must be non-empty")
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("flood: duplicate schema column %q", name))
	}
	f.name = name
	s.byName[name] = len(s.fields)
	s.fields = append(s.fields, f)
	return s
}

// Int64 declares a raw 64-bit integer column.
func (s *Schema) Int64(name string) *Schema { return s.add(name, field{kind: KindInt64}) }

// Float64 declares a floating-point column preserved to the given number of
// decimal digits (0..18); pass digits < 0 to infer the smallest count (up
// to 9) that represents every loaded value exactly — TableBuilder.Build
// fails if no count up to 9 does, rather than storing rounded values.
func (s *Schema) Float64(name string, digits int) *Schema {
	if digits > 18 {
		panic(fmt.Sprintf("flood: column %q: digits %d out of [0, 18]", name, digits))
	}
	f := field{kind: KindFloat64, digits: digits}
	if digits >= 0 {
		sc, err := encode.NewDecimalScaler(digits)
		if err != nil {
			panic(fmt.Sprintf("flood: column %q: %v", name, err))
		}
		f.scaler = sc
	}
	return s.add(name, f)
}

// String declares a dictionary-encoded string column. Codes are assigned in
// lexicographic order at Build, so range and prefix predicates on the column
// match string order.
func (s *Schema) String(name string) *Schema { return s.add(name, field{kind: KindString}) }

// Time declares a timestamp column stored as nanosecond ticks since the Unix
// epoch.
func (s *Schema) Time(name string) *Schema { return s.TimeUnit(name, time.Nanosecond) }

// TimeUnit declares a timestamp column stored as ticks of the given unit
// (coarser units extend the representable range and compress better).
func (s *Schema) TimeUnit(name string, unit time.Duration) *Schema {
	if unit <= 0 {
		panic(fmt.Sprintf("flood: column %q: non-positive time unit %v", name, unit))
	}
	return s.add(name, field{kind: KindTime, tcodec: encode.TimeCodec{Unit: unit}})
}

// NumCols returns the number of declared columns.
func (s *Schema) NumCols() int { return len(s.fields) }

// Name returns the name of column i.
func (s *Schema) Name(i int) string { return s.fields[i].name }

// Names returns the column names in declaration (= physical) order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.name
	}
	return out
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// KindAt returns the logical kind of column i.
func (s *Schema) KindAt(i int) Kind { return s.fields[i].kind }

// mustCol resolves a column name to its index, panicking on unknown names
// and, when want >= 0, on kind mismatches.
func (s *Schema) mustCol(name string, want Kind) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("flood: unknown schema column %q", name))
	}
	if want >= 0 && s.fields[i].kind != want {
		panic(fmt.Sprintf("flood: column %q is %s, not %s", name, s.fields[i].kind, want))
	}
	return i
}

// anyKind marks predicates that accept any column kind.
const anyKind Kind = -1

// floatScaler resolves a float column and its fitted scaler, panicking when
// an inferred-digits column has not been fitted by a Build yet.
func (s *Schema) floatScaler(name string) (int, *encode.DecimalScaler) {
	col := s.mustCol(name, KindFloat64)
	sc := s.fields[col].scaler
	if sc == nil {
		panic(fmt.Sprintf("flood: column %q: inferred scaler not fitted yet (call Build first)", name))
	}
	return col, sc
}

// stringDict resolves a string column and its fitted dictionary, panicking
// before the first Build.
func (s *Schema) stringDict(name string) (int, *encode.Dictionary) {
	col := s.mustCol(name, KindString)
	d := s.fields[col].dict
	if d == nil {
		panic(fmt.Sprintf("flood: column %q: dictionary not fitted yet (call Build first)", name))
	}
	return col, d
}

// Dictionary returns the fitted dictionary of a string column (nil before
// the first Build).
func (s *Schema) Dictionary(name string) *encode.Dictionary {
	return s.fields[s.mustCol(name, KindString)].dict
}

// Scaler returns the fitted decimal scaler of a float column (nil before
// the first Build when digits are inferred).
func (s *Schema) Scaler(name string) *encode.DecimalScaler {
	return s.fields[s.mustCol(name, KindFloat64)].scaler
}

// DictionaryAt is Dictionary for the column at position i, for a caller that
// has resolved the name already; it is nil for a column of another kind.
func (s *Schema) DictionaryAt(i int) *encode.Dictionary { return s.fields[i].dict }

// ScalerAt is Scaler for the column at position i, for a caller that has
// resolved the name already; it is nil for a column of another kind.
func (s *Schema) ScalerAt(i int) *encode.DecimalScaler { return s.fields[i].scaler }

// DecodeValue converts the physical int64 stored in column i back to its
// logical value (int64, float64, string, or time.Time).
func (s *Schema) DecodeValue(i int, raw int64) any {
	f := &s.fields[i]
	switch f.kind {
	case KindFloat64:
		return f.scaler.Decode(raw)
	case KindString:
		return f.dict.Value(raw)
	case KindTime:
		return f.tcodec.Decode(raw)
	default:
		return raw
	}
}

// EncodeRow converts one logical row (one value per column, in schema order)
// to the physical int64 row that Insert and NewTable accept. Int64 columns
// take int64 or int; float columns float64; string columns string (the value
// must already be in the fitted dictionary); time columns time.Time.
func (s *Schema) EncodeRow(vals ...any) ([]int64, error) {
	if len(vals) != len(s.fields) {
		return nil, fmt.Errorf("flood: row has %d values, schema has %d columns", len(vals), len(s.fields))
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		enc, err := s.encodeValue(i, v)
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

func (s *Schema) encodeValue(i int, v any) (int64, error) {
	f := &s.fields[i]
	switch f.kind {
	case KindInt64:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		}
	case KindFloat64:
		if x, ok := v.(float64); ok {
			if f.scaler == nil {
				return 0, fmt.Errorf("flood: column %q: inferred scaler not fitted yet (call Build first)", f.name)
			}
			enc, err := f.scaler.EncodeChecked(x)
			if err != nil {
				return 0, fmt.Errorf("flood: column %q: %w", f.name, err)
			}
			return enc, nil
		}
	case KindString:
		if x, ok := v.(string); ok {
			if f.dict == nil {
				return 0, fmt.Errorf("flood: column %q: dictionary not fitted yet (call Build first)", f.name)
			}
			c, ok := f.dict.Code(x)
			if !ok {
				return 0, fmt.Errorf("flood: column %q: value %q not in dictionary", f.name, x)
			}
			return c, nil
		}
	case KindTime:
		if x, ok := v.(time.Time); ok {
			return f.tcodec.EncodeValue(x), nil
		}
	}
	return 0, fmt.Errorf("flood: column %q (%s): incompatible value %T", f.name, f.kind, v)
}

// Where starts a typed predicate over the schema's columns. Chain the
// With* constructors and pass the result anywhere a Query is accepted:
//
//	q := s.Where().
//		WithTimeRange("pickup", t0, t1).
//		WithStringEquals("city", "nyc").
//		WithFloatRange("fare", 1.5, 9.99).
//		Query()
func (s *Schema) Where() *TypedQuery {
	return &TypedQuery{s: s, q: NewQuery(len(s.fields))}
}

// TypedQuery builds a Query from logical-typed predicates, encoding each one
// into the physical int64 domain through the schema's fitted encoders. A
// predicate naming a value outside the data domain (an unknown dictionary
// string, a float range containing no representable code) yields an
// unsatisfiable query rather than an error, matching SQL semantics of an
// empty result.
type TypedQuery struct {
	s *Schema
	q Query
}

// Query returns the encoded int64 query.
func (t *TypedQuery) Query() Query { return t.q }

// impossible marks dimension col unsatisfiable (Min > Max).
func (t *TypedQuery) impossible(col int) *TypedQuery {
	t.q = t.q.WithRange(col, 1, 0)
	return t
}

// WithIntRange filters an int64 column to the inclusive range [lo, hi].
func (t *TypedQuery) WithIntRange(name string, lo, hi int64) *TypedQuery {
	t.q = t.q.WithRange(t.s.mustCol(name, KindInt64), lo, hi)
	return t
}

// WithIntEquals filters an int64 column to one value.
func (t *TypedQuery) WithIntEquals(name string, v int64) *TypedQuery {
	return t.WithIntRange(name, v, v)
}

// WithFloatRange filters a float column to the inclusive range [lo, hi].
// Endpoints more precise than the column's digits round conservatively
// inward.
func (t *TypedQuery) WithFloatRange(name string, lo, hi float64) *TypedQuery {
	col, sc := t.s.floatScaler(name)
	l, h := sc.EncodeLower(lo), sc.EncodeUpper(hi)
	if l > h {
		return t.impossible(col)
	}
	t.q = t.q.WithRange(col, l, h)
	return t
}

// WithFloatMin filters a float column to values >= lo.
func (t *TypedQuery) WithFloatMin(name string, lo float64) *TypedQuery {
	col, sc := t.s.floatScaler(name)
	t.q = t.q.WithRange(col, sc.EncodeLower(lo), PosInf)
	return t
}

// WithFloatMax filters a float column to values <= hi.
func (t *TypedQuery) WithFloatMax(name string, hi float64) *TypedQuery {
	col, sc := t.s.floatScaler(name)
	t.q = t.q.WithRange(col, NegInf, sc.EncodeUpper(hi))
	return t
}

// WithStringEquals filters a string column to one value; a value outside the
// fitted dictionary makes the query unsatisfiable.
func (t *TypedQuery) WithStringEquals(name string, v string) *TypedQuery {
	col, d := t.s.stringDict(name)
	c, ok := d.Code(v)
	if !ok {
		return t.impossible(col)
	}
	t.q = t.q.WithEquals(col, c)
	return t
}

// PreparedString is a string-equality predicate whose dictionary code was
// resolved once, at preparation time. Hot query loops that filter on the
// same value repeatedly (a serving tier fanning out one tenant's queries, a
// benchmark) use it to skip the per-query dictionary hash lookup that
// WithStringEquals pays. A PreparedString is bound to the fit that produced
// it: re-running TableBuilder.Build on the schema invalidates outstanding
// prepared predicates along with the rest of the fitted encoders.
type PreparedString struct {
	col  int
	code int64
	ok   bool
}

// PrepareString resolves a string-equality predicate against the fitted
// dictionary once, for reuse across queries with WithPreparedString. A value
// absent from the dictionary is not an error: applying the prepared
// predicate yields an unsatisfiable query, like WithStringEquals.
func (s *Schema) PrepareString(name, v string) PreparedString {
	col, d := s.stringDict(name)
	c, ok := d.Code(v)
	return PreparedString{col: col, code: c, ok: ok}
}

// WithPreparedString applies a predicate prepared by Schema.PrepareString.
func (t *TypedQuery) WithPreparedString(p PreparedString) *TypedQuery {
	if !p.ok {
		return t.impossible(p.col)
	}
	t.q = t.q.WithEquals(p.col, p.code)
	return t
}

// WithStringRange filters a string column to the inclusive lexicographic
// range [lo, hi]; endpoints need not exist in the data.
func (t *TypedQuery) WithStringRange(name string, lo, hi string) *TypedQuery {
	col, d := t.s.stringDict(name)
	l, h, ok := d.RangeFor(lo, hi)
	if !ok {
		return t.impossible(col)
	}
	t.q = t.q.WithRange(col, l, h)
	return t
}

// WithPrefix filters a string column to values starting with prefix
// (LIKE 'prefix%').
func (t *TypedQuery) WithPrefix(name string, prefix string) *TypedQuery {
	col, d := t.s.stringDict(name)
	l, h, ok := d.PrefixRange(prefix)
	if !ok {
		return t.impossible(col)
	}
	t.q = t.q.WithRange(col, l, h)
	return t
}

// WithTimeRange filters a time column to the inclusive range [lo, hi].
// Endpoints finer than the column's tick unit round conservatively inward
// (lo up, hi down), so no stored timestamp outside [lo, hi] can match.
func (t *TypedQuery) WithTimeRange(name string, lo, hi time.Time) *TypedQuery {
	col := t.s.mustCol(name, KindTime)
	c := t.s.fields[col].tcodec
	l, h := c.EncodeLower(lo), c.EncodeUpper(hi)
	if l > h {
		return t.impossible(col)
	}
	t.q = t.q.WithRange(col, l, h)
	return t
}

// WithRange adds a raw physical-domain range on a column of any kind —
// the escape hatch to the untyped API.
func (t *TypedQuery) WithRange(name string, lo, hi int64) *TypedQuery {
	t.q = t.q.WithRange(t.s.mustCol(name, anyKind), lo, hi)
	return t
}
