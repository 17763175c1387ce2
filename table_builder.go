package flood

import (
	"fmt"
	"slices"
	"time"

	"flood/internal/encode"
)

// TableBuilder accumulates logical-typed rows or columns for one schema and
// encodes them into the physical int64 Table the index engine operates on.
// Load data either row-at-a-time with AppendRow or column-at-a-time with the
// Set*Column methods (one style per column; Build validates that every
// column ends up the same length), then call Build.
//
// Build fits the schema's encoders to the loaded data: string dictionaries
// are constructed over the distinct values observed, inferred-digit float
// scalers pick the smallest exact precision. The fitted schema is what
// decodes Select results and resolves typed predicates afterwards.
//
// A TableBuilder is single-goroutine: load it from one goroutine. Build
// spreads the columns over the worker pool itself and returns once every
// column is done. A builder may be reused for another load after Build, but
// doing so refits the shared Schema to the new data — only safe once nothing
// built from the previous table still decodes through that schema (see the
// Schema doc).
type TableBuilder struct {
	s       *Schema
	ints    [][]int64
	floats  [][]float64
	strings [][]string
	times   [][]time.Time
}

// NewTableBuilder returns a TableBuilder loading data for this schema.
func (s *Schema) NewTableBuilder() *TableBuilder {
	if len(s.fields) == 0 {
		panic("flood: schema has no columns")
	}
	n := len(s.fields)
	return &TableBuilder{
		s:       s,
		ints:    make([][]int64, n),
		floats:  make([][]float64, n),
		strings: make([][]string, n),
		times:   make([][]time.Time, n),
	}
}

// AppendRow adds one logical row, one value per schema column in declaration
// order. Int64 columns accept int64 or int; float columns float64; string
// columns string; time columns time.Time. On error nothing is appended, so
// the caller can fix the row and retry without corrupting the builder.
func (b *TableBuilder) AppendRow(vals ...any) error {
	if len(vals) != len(b.s.fields) {
		return fmt.Errorf("flood: row has %d values, schema has %d columns", len(vals), len(b.s.fields))
	}
	// Validate every value before touching any column: a mid-row type error
	// must not leave ragged columns behind.
	for i, v := range vals {
		ok := false
		switch b.s.fields[i].kind {
		case KindInt64:
			switch v.(type) {
			case int64, int:
				ok = true
			}
		case KindFloat64:
			_, ok = v.(float64)
		case KindString:
			_, ok = v.(string)
		case KindTime:
			_, ok = v.(time.Time)
		}
		if !ok {
			return b.typeErr(i, v)
		}
	}
	for i, v := range vals {
		switch b.s.fields[i].kind {
		case KindInt64:
			switch x := v.(type) {
			case int64:
				b.ints[i] = append(b.ints[i], x)
			case int:
				b.ints[i] = append(b.ints[i], int64(x))
			}
		case KindFloat64:
			b.floats[i] = append(b.floats[i], v.(float64))
		case KindString:
			b.strings[i] = append(b.strings[i], v.(string))
		case KindTime:
			b.times[i] = append(b.times[i], v.(time.Time))
		}
	}
	return nil
}

func (b *TableBuilder) typeErr(i int, v any) error {
	f := &b.s.fields[i]
	return fmt.Errorf("flood: column %q (%s): incompatible value %T", f.name, f.kind, v)
}

// SetInt64Column loads an int64 column wholesale (the slice is retained, not
// copied, until Build).
func (b *TableBuilder) SetInt64Column(name string, col []int64) error {
	i, err := b.colFor(name, KindInt64)
	if err != nil {
		return err
	}
	b.ints[i] = col
	return nil
}

// SetFloat64Column loads a float column wholesale.
func (b *TableBuilder) SetFloat64Column(name string, col []float64) error {
	i, err := b.colFor(name, KindFloat64)
	if err != nil {
		return err
	}
	b.floats[i] = col
	return nil
}

// SetStringColumn loads a string column wholesale.
func (b *TableBuilder) SetStringColumn(name string, col []string) error {
	i, err := b.colFor(name, KindString)
	if err != nil {
		return err
	}
	b.strings[i] = col
	return nil
}

// SetTimeColumn loads a time column wholesale.
func (b *TableBuilder) SetTimeColumn(name string, col []time.Time) error {
	i, err := b.colFor(name, KindTime)
	if err != nil {
		return err
	}
	b.times[i] = col
	return nil
}

func (b *TableBuilder) colFor(name string, want Kind) (int, error) {
	i, ok := b.s.byName[name]
	if !ok {
		return 0, fmt.Errorf("flood: unknown schema column %q", name)
	}
	if f := &b.s.fields[i]; f.kind != want {
		return 0, fmt.Errorf("flood: column %q is %s, not %s", name, f.kind, want)
	}
	return i, nil
}

// NumRows returns the length of the longest loaded column (Build fails
// unless every column matches it).
func (b *TableBuilder) NumRows() int {
	n := 0
	for i := range b.s.fields {
		if l := b.colLen(i); l > n {
			n = l
		}
	}
	return n
}

func (b *TableBuilder) colLen(i int) int {
	switch b.s.fields[i].kind {
	case KindFloat64:
		return len(b.floats[i])
	case KindString:
		return len(b.strings[i])
	case KindTime:
		return len(b.times[i])
	default:
		return len(b.ints[i])
	}
}

// Build fits the schema's encoders to the loaded data, encodes every column
// to int64, and constructs the Table. The builder's logical columns are
// released; the returned table is ready for flood.Build (or any baseline),
// and the schema now decodes that table's values. Each column is fitted,
// encoded and compressed in one pass by its own task on the worker pool. On
// error the schema keeps its previous fit, and the error is the
// lowest-numbered failing column's.
func (b *TableBuilder) Build() (*Table, error) {
	n := b.NumRows()
	fits := slices.Clone(b.s.fields)
	tbl, err := newTable(b.s.Names(), n, func(c int) ([]int64, error) {
		f := &fits[c]
		if l := b.colLen(c); l != n {
			return nil, fmt.Errorf("flood: column %q has %d rows, want %d", f.name, l, n)
		}
		var (
			col []int64
			err error
		)
		switch f.kind {
		case KindInt64:
			col = b.ints[c]
		case KindFloat64:
			if f.digits < 0 {
				f.scaler, col, err = encode.FitDecimalScaler(b.floats[c], 9)
			} else {
				col, err = f.scaler.Encode(b.floats[c])
			}
		case KindString:
			f.dict, col = encode.FitDictionary(b.strings[c])
		case KindTime:
			col = f.tcodec.Encode(b.times[c])
		}
		if err != nil {
			return nil, fmt.Errorf("flood: column %q: %w", f.name, err)
		}
		return col, nil
	})
	if err != nil {
		return nil, err
	}
	copy(b.s.fields, fits)
	// Release the logical columns so the builder can be reused without
	// pinning the previous load.
	for i := range b.s.fields {
		b.ints[i], b.floats[i], b.strings[i], b.times[i] = nil, nil, nil, nil
	}
	return tbl, nil
}
