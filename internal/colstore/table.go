package colstore

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Table is a read-only collection of equally sized named columns. Indexes
// reorder rows at build time by constructing a new Table with Reorder; the
// store itself never mutates.
type Table struct {
	names    []string
	cols     []*Column
	prefixes [][]int64      // optional per-column prefix sums (len n+1), nil if absent
	bitmaps  []*BitmapIndex // optional per-column bitmap indexes, nil if absent
	n        int
}

// NewTable builds a table from column-major data. Every column must have the
// same length. Column name lookups are case-sensitive.
func NewTable(names []string, data [][]int64) (*Table, error) {
	if len(names) != len(data) {
		return nil, fmt.Errorf("colstore: %d names for %d columns", len(names), len(data))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("colstore: table must have at least one column")
	}
	n := len(data[0])
	t := &Table{
		names:    append([]string(nil), names...),
		cols:     make([]*Column, len(data)),
		prefixes: make([][]int64, len(data)),
		n:        n,
	}
	for i, col := range data {
		if len(col) != n {
			return nil, fmt.Errorf("colstore: column %q has %d rows, want %d", names[i], len(col), n)
		}
		t.cols[i] = newColumn(col)
	}
	return t, nil
}

// MustNewTable is NewTable for statically well-formed inputs (tests, examples).
func MustNewTable(names []string, data [][]int64) *Table {
	t, err := NewTable(names, data)
	if err != nil {
		panic(err)
	}
	return t
}

// AppendBlocks returns a table holding t's rows followed by cols, one slice
// per column, each holding the same whole number of blocks. t must end on a
// block boundary and carry no aggregate companions or bitmap indexes. The
// result shares t's storage and t keeps reading exactly its own rows, so a
// single writer can grow a table block by block while readers hold earlier
// versions; only the newest version may be appended to.
func (t *Table) AppendBlocks(cols [][]int64) *Table {
	k := len(cols[0])
	if t.n%BlockSize != 0 || k%BlockSize != 0 || len(cols) != len(t.cols) || t.bitmaps != nil {
		panic("colstore: AppendBlocks needs whole blocks on a block boundary, one slice per column, and no bitmap indexes")
	}
	nt := &Table{names: t.names, cols: make([]*Column, len(t.cols)), prefixes: make([][]int64, len(t.cols)), n: t.n + k}
	for c, col := range t.cols {
		if len(cols[c]) != k || t.prefixes[c] != nil {
			panic("colstore: AppendBlocks needs equal-length columns and no aggregate companions")
		}
		grown := *col
		grown.appendBlocks(cols[c])
		nt.cols[c] = &grown
	}
	return nt
}

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.n }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Name returns the name of column i.
func (t *Table) Name(i int) string { return t.names[i] }

// Names returns a copy of all column names in order.
func (t *Table) Names() []string { return append([]string(nil), t.names...) }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, n := range t.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Column returns the compressed column at position i.
func (t *Table) Column(i int) *Column { return t.cols[i] }

// Get returns the value at (col, row) in constant time.
func (t *Table) Get(col, row int) int64 { return t.cols[col].Get(row) }

// Raw decodes column i into a fresh slice.
func (t *Table) Raw(i int) []int64 { return t.cols[i].Decode() }

// Reorder returns a new table whose row r holds the original row perm[r].
// perm must be a permutation of [0, NumRows). Aggregate columns are rebuilt
// for the same set of columns that had them; bitmap indexes are positional
// and are not carried over — builders call EnableBitmapIndexes on the
// reordered table. Columns are independent, so they decode and recompress in
// parallel, each worker holding the one raw column it decoded, which
// SetColumn gathers from block by block.
func (t *Table) Reorder(perm []int) *Table {
	w := NewTableWriter(t.names, t.n, 0)
	rows := make([]int32, len(perm))
	for r, p := range perm {
		rows[r] = int32(p)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(t.cols) {
		workers = len(t.cols)
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var raw []int64
			for c := k; c < len(t.cols); c += workers {
				raw = t.cols[c].DecodeInto(raw)
				w.SetColumn(c, raw, rows, t.prefixes[c] != nil)
			}
		}(k)
	}
	wg.Wait()
	return w.Table()
}

// TableWriter assembles a table one column at a time, from raw values the
// caller holds only while it hands them over — so a builder permuting a wide
// table never has more than a column or two decoded. SetColumn may be called
// concurrently for distinct columns.
type TableWriter struct {
	t             *Table
	bitmapMaxCard int
	words         sync.Pool // *[]uint64: a gathered column's packed words before their copy
}

// NewTableWriter starts a table of n rows with the given column names. Every
// column whose value spread fits bitmapMaxCard (see newBitmapIndex) gets a
// bitmap index as it is set; bitmapMaxCard <= 0 builds none.
func NewTableWriter(names []string, n, bitmapMaxCard int) *TableWriter {
	t := &Table{
		names:    append([]string(nil), names...),
		cols:     make([]*Column, len(names)),
		prefixes: make([][]int64, len(names)),
		n:        n,
	}
	if bitmapMaxCard > 0 {
		t.bitmaps = make([]*BitmapIndex, len(names))
	}
	tw := &TableWriter{t: t, bitmapMaxCard: bitmapMaxCard}
	tw.words.New = func() any { return new([]uint64) }
	return tw
}

// SetColumn compresses column c, with a cumulative-aggregate companion when
// aggregate is set. Row r of the column is raw[r], or raw[perm[r]] when perm
// is given: a builder that reorders a table hands over a source column and
// the permutation instead of a gathered copy. raw, and perm when given, must
// hold the table's row count; neither is retained.
//
// Values in hand are encoded as newColumn encodes them, into packed words of
// their exact size. A gathered column is encoded a 128-row block at a time as
// each block is gathered into a buffer on the stack, its packed words going
// to a scratch buffer the writer lends to one call at a time and then copied
// once into a slice of their own size. Either way prefix sums are made from
// the same blocks, and a bitmap index from the packed column
// (newBitmapIndex), whose zone maps give each stripe's domain.
func (w *TableWriter) SetColumn(c int, raw []int64, perm []int32, aggregate bool) {
	n := len(raw)
	col := emptyColumn(n)
	var scratch *[]uint64
	if perm == nil {
		col.appendBlocks(raw)
	} else {
		scratch = w.words.Get().(*[]uint64)
		col.words = (*scratch)[:0]
	}
	var pre []int64
	if aggregate {
		pre = make([]int64, n+1)
	}
	var buf [BlockSize]int64
	var sum int64
	for lo := 0; lo < n; lo += BlockSize {
		blk := raw[lo:min(lo+BlockSize, n)]
		if perm != nil {
			blk = buf[:len(blk)]
			for i, p := range perm[lo : lo+len(blk)] {
				blk[i] = raw[p]
			}
			if b := lo / BlockSize; b > 0 && cap(col.words)-len(col.words) < BlockSize {
				// The next block may not fit: make room for the rest of the
				// column at the blocks' mean size so far, plus one block of
				// 64-bit deltas.
				col.words = slices.Grow(col.words, len(col.words)*((n-lo+BlockSize-1)/BlockSize)/b+BlockSize)
			}
			col.appendBlocks(blk)
		}
		if pre != nil {
			for i, v := range blk {
				sum += v
				pre[lo+i+1] = sum
			}
		}
	}
	if scratch != nil {
		*scratch = col.words
		col.words = slices.Clone(col.words)
		w.words.Put(scratch)
	}
	t := w.t
	t.cols[c], t.prefixes[c] = col, pre
	if t.bitmaps != nil {
		t.bitmaps[c] = newBitmapIndex(col, w.bitmapMaxCard)
	}
}

// Table returns the assembled table; every column must have been set.
func (w *TableWriter) Table() *Table { return w.t }

// EnableAggregate builds a cumulative-aggregation companion for column c so
// SUM over exact sub-ranges resolves as two prefix lookups (§7.1 optimization
// 2). Safe to call more than once.
func (t *Table) EnableAggregate(c int) {
	if t.prefixes[c] != nil {
		return
	}
	t.buildPrefix(c, t.cols[c].Decode())
}

func (t *Table) buildPrefix(c int, raw []int64) {
	pre := make([]int64, len(raw)+1)
	var acc int64
	for i, v := range raw {
		acc += v
		pre[i+1] = acc
	}
	t.prefixes[c] = pre
}

// HasAggregate reports whether column c has a cumulative-aggregation column.
func (t *Table) HasAggregate(c int) bool { return t.prefixes[c] != nil }

// EnableBitmapIndexes builds a bitmap index for every column whose value
// spread fits maxCard (see newBitmapIndex), replacing any existing set, and
// returns how many columns were indexed. Columns build in parallel — each
// pays one decode pass. The scan kernel consults the indexes automatically;
// maxCard <= 0 clears them. Not safe to call concurrently with queries.
func (t *Table) EnableBitmapIndexes(maxCard int) int {
	if maxCard <= 0 {
		t.bitmaps = nil
		return 0
	}
	bitmaps := make([]*BitmapIndex, len(t.cols))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(t.cols) {
		workers = len(t.cols)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < len(t.cols); c += workers {
				bitmaps[c] = newBitmapIndex(t.cols[c], maxCard)
			}
		}(w)
	}
	wg.Wait()
	built := 0
	for _, bi := range bitmaps {
		if bi != nil {
			built++
		}
	}
	t.bitmaps = bitmaps
	return built
}

// Bitmap returns column c's bitmap index, or nil when the column has none
// (never built, or the column's domain was too wide to qualify).
func (t *Table) Bitmap(c int) *BitmapIndex {
	if t.bitmaps == nil {
		return nil
	}
	return t.bitmaps[c]
}

// SetBitmap attaches a decoded bitmap index to column c (the snapshot-load
// path). A nil index clears the column's entry.
func (t *Table) SetBitmap(c int, bi *BitmapIndex) {
	if t.bitmaps == nil {
		if bi == nil {
			return
		}
		t.bitmaps = make([]*BitmapIndex, len(t.cols))
	}
	t.bitmaps[c] = bi
}

// PrefixSum returns sum of column c over rows [start, end). It panics if the
// aggregate column was not enabled.
func (t *Table) PrefixSum(c, start, end int) int64 {
	pre := t.prefixes[c]
	return pre[end] - pre[start]
}

// SizeBytes reports the compressed footprint of all columns plus any
// aggregate companions and bitmap indexes.
func (t *Table) SizeBytes() int64 {
	var s int64
	for i, c := range t.cols {
		s += c.SizeBytes()
		if t.prefixes[i] != nil {
			s += int64(len(t.prefixes[i])) * 8
		}
		if bi := t.Bitmap(i); bi != nil {
			s += bi.SizeBytes()
		}
	}
	return s
}

// UncompressedSizeBytes reports the footprint of the table as plain arrays.
func (t *Table) UncompressedSizeBytes() int64 {
	return int64(t.n) * int64(len(t.cols)) * 8
}
