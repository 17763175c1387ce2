package flood

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"flood/internal/colstore"
	"flood/internal/query"
)

// Rows is a cursor over the rows matched by a Select. It is produced by the
// Select methods on every facade, and by Schema.Select for any other index
// (the baselines). Iterate with Next and
// read the projected columns with the typed accessors:
//
//	rows, _ := idx.Select(q, "city", "fare")
//	defer rows.Close()
//	for rows.Next() {
//		city, fare := rows.String(0), rows.Float64(1)
//		...
//	}
//
// Accessor positions index the projection (0 = first selected column), not
// the table. The typed accessors (Float64, String, Time) need the schema the
// table was built with; without one, every column reads as raw int64.
//
// Rows are delivered in ascending physical row id — base-index rows in
// storage order, then any unmerged insert-log rows — unless OrderBy
// re-ordered them. The cursor and its buffers are pooled: Close returns them
// for reuse, making steady-state sequential Select allocation-free. A Rows
// must not be used after Close, and is not safe for concurrent use.
type Rows struct {
	rc     query.RowCollector
	schema *Schema  // nil: raw int64 access only
	cols   []int    // physical column index per projection position
	names  []string // projected column names

	pos      int // index into rc ids; -1 before the first Next
	cur      *colstore.Table
	curStart int64
	curEnd   int64
	curID    int64
	closed   bool // guards double-Close from double-pooling the cursor
}

var rowsPool = sync.Pool{New: func() any { return new(Rows) }}

// colResolver maps projection names to physical column positions;
// nameResolver and *Schema satisfy it (schema declaration order is physical
// order).
type colResolver interface {
	ColumnIndex(name string) int
	Name(i int) string
	NumCols() int
}

// projection is a Select's column list: names, or positions a caller
// resolved already (a parsed statement); neither selects every column.
type projection struct {
	names []string
	at    []int
}

// getRows returns a pooled cursor with the projection resolved against
// resolve. Unknown column names and positions out of range panic — like a
// malformed regexp, a bad projection is a programming error, and the Select
// signature stays chainable.
func getRows(s *Schema, resolve colResolver, p projection) *Rows {
	r := rowsPool.Get().(*Rows)
	r.schema = s
	r.closed = false
	r.cols = r.cols[:0]
	r.names = r.names[:0]
	n := resolve.NumCols()
	switch {
	case len(p.at) > 0:
		for _, c := range p.at {
			if c < 0 || c >= n {
				r.release()
				panic(fmt.Sprintf("flood: Select: column position %d out of range [0, %d)", c, n))
			}
			r.cols = append(r.cols, c)
		}
	case len(p.names) > 0:
		for _, name := range p.names {
			c := resolve.ColumnIndex(name)
			if c < 0 {
				r.release()
				panic(fmt.Sprintf("flood: Select: unknown column %q", name))
			}
			r.cols = append(r.cols, c)
		}
	default:
		for i := 0; i < n; i++ {
			r.cols = append(r.cols, i)
		}
	}
	for _, c := range r.cols {
		r.names = append(r.names, resolve.Name(c))
	}
	return r
}

// finalize orders the collected ids and rewinds the cursor; called once by
// Select after execution.
func (r *Rows) finalize() {
	r.rc.Sort()
	r.Reset()
}

// Len returns the number of matched rows (0 once the cursor is closed).
func (r *Rows) Len() int {
	if r.closed {
		return 0
	}
	return r.rc.Len()
}

// Columns returns the projected column names in accessor order (nil once
// the cursor is closed). The slice is owned by the cursor; do not retain it
// past Close.
func (r *Rows) Columns() []string {
	if r.closed {
		return nil
	}
	return r.names
}

// Reset rewinds the cursor so the result set can be iterated again.
func (r *Rows) Reset() {
	r.pos = -1
	r.cur = nil
	r.curStart, r.curEnd = 0, 0
}

// Next advances to the next row, reporting whether one exists. Calling Next
// on a closed cursor returns false without touching the pooled buffers.
func (r *Rows) Next() bool {
	if r.closed {
		return false
	}
	ids := r.rc.IDs()
	r.pos++
	if r.pos >= len(ids) {
		r.cur = nil // park accessors on the zero-value path past the end
		return false
	}
	id := ids[r.pos]
	r.curID = id
	if id < r.curStart || id >= r.curEnd {
		r.seek(id)
	}
	return true
}

// seek re-resolves the cursor's source table for id.
func (r *Rows) seek(id int64) {
	for _, s := range r.rc.Sources() {
		if id >= s.Start && id < s.End {
			r.cur, r.curStart, r.curEnd = s.Table, s.Start, s.End
			return
		}
	}
	panic("flood: Rows cursor id outside every source")
}

// RowID returns the current row's global physical id (base rows first, then
// insert-log rows) — useful for debugging storage locality. It is 0
// when the cursor is not positioned on a row.
func (r *Rows) RowID() int64 {
	if !r.valid() {
		return 0
	}
	return r.curID
}

// valid reports whether the cursor is positioned on a live row. It is false
// before the first Next, after Next has returned false, and after Close —
// in those states every accessor returns its zero value deterministically
// instead of reading pooled (possibly re-owned) memory.
func (r *Rows) valid() bool { return !r.closed && r.cur != nil }

// raw returns the stored int64 of projection position j for the current row.
func (r *Rows) raw(j int) int64 {
	return r.cur.Get(r.cols[j], int(r.curID-r.curStart))
}

// Int64 returns projection position j of the current row as a raw int64
// (valid for every column kind; non-integer kinds return their encoded
// physical value). It is 0 when the cursor is not positioned on a row
// (before the first Next, after the last, or after Close).
func (r *Rows) Int64(j int) int64 {
	if !r.valid() {
		return 0
	}
	return r.raw(j)
}

// Float64 returns projection position j as a float; the column must be a
// schema Float64 column. It is 0 when the cursor is not positioned on a row.
func (r *Rows) Float64(j int) float64 {
	if !r.valid() {
		return 0
	}
	f := r.field(j, KindFloat64)
	if f == nil {
		r.mismatch(j, KindFloat64)
	}
	return f.scaler.Decode(r.raw(j))
}

// String returns projection position j as a string; the column must be a
// schema String column. It is "" when the cursor is not positioned on a row.
func (r *Rows) String(j int) string {
	if !r.valid() {
		return ""
	}
	f := r.field(j, KindString)
	if f == nil {
		r.mismatch(j, KindString)
	}
	return f.dict.Value(r.raw(j))
}

// Time returns projection position j as a timestamp; the column must be a
// schema Time column. It is the zero time when the cursor is not positioned
// on a row.
func (r *Rows) Time(j int) time.Time {
	if !r.valid() {
		return time.Time{}
	}
	f := r.field(j, KindTime)
	if f == nil {
		r.mismatch(j, KindTime)
	}
	return f.tcodec.Decode(r.raw(j))
}

// Value returns projection position j decoded to its logical type (int64,
// float64, string, or time.Time) — raw int64 when no schema is attached. It
// is nil when the cursor is not positioned on a row.
func (r *Rows) Value(j int) any {
	if !r.valid() {
		return nil
	}
	if r.schema == nil {
		return r.raw(j)
	}
	return r.schema.DecodeValue(r.cols[j], r.raw(j))
}

// field returns projection position j's schema field when it is of kind
// want, nil otherwise. It inlines into the typed accessors, so a decoded
// value costs no call beyond the column read; they panic through mismatch on
// nil.
func (r *Rows) field(j int, want Kind) *field {
	if r.schema != nil {
		if f := &r.schema.fields[r.cols[j]]; f.kind == want {
			return f
		}
	}
	return nil
}

// mismatch panics for a typed accessor of kind want called on projection
// position j, which field refused.
func (r *Rows) mismatch(j int, want Kind) {
	if r.schema == nil {
		panic(fmt.Sprintf("flood: Rows: typed accessor %v needs a schema (index built without one)", want))
	}
	f := &r.schema.fields[r.cols[j]]
	panic(fmt.Sprintf("flood: Rows: column %q is %s, not %s", f.name, f.kind, want))
}

// orderKey is one (value, id) pair in an OrderBy heap.
type orderKey struct {
	v  int64
	id int64
}

// OrderBy re-orders the result set by a column ascending and keeps only the
// first limit rows (limit <= 0 keeps everything), using a bounded top-k heap
// so a small limit never sorts the full result. The column is named against
// the table (it need not be projected); float, string, and time columns
// order by their logical values, since all encodings are order-preserving.
// Returns the receiver for chaining; iteration restarts.
func (r *Rows) OrderBy(col string, limit int) *Rows { return r.orderBy(col, limit, false) }

// OrderByDesc is OrderBy descending.
func (r *Rows) OrderByDesc(col string, limit int) *Rows { return r.orderBy(col, limit, true) }

func (r *Rows) orderBy(col string, limit int, desc bool) *Rows {
	if r.closed {
		return r // deterministic no-op on a closed cursor
	}
	// Resolve the column before the empty-result fast path: a typo'd name
	// must fail fast regardless of what the query happened to match.
	c := -1
	if srcs := r.rc.Sources(); len(srcs) > 0 {
		c = srcs[0].Table.ColumnIndex(col)
	} else if r.schema != nil {
		c = r.schema.ColumnIndex(col)
	}
	if c < 0 {
		panic(fmt.Sprintf("flood: OrderBy: unknown column %q", col))
	}
	ids := r.rc.IDs()
	if len(ids) == 0 {
		return r
	}
	// less orders keys by value (direction-adjusted), breaking ties by id so
	// the order is total and deterministic.
	less := func(a, b orderKey) bool {
		if a.v != b.v {
			if desc {
				return a.v > b.v
			}
			return a.v < b.v
		}
		return a.id < b.id
	}
	value := func(id int64) int64 {
		t, row, _ := r.rc.Resolve(id)
		return t.Get(c, row)
	}
	if limit <= 0 || limit >= len(ids) {
		keys := make([]orderKey, len(ids))
		for i, id := range ids {
			keys[i] = orderKey{v: value(id), id: id}
		}
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		for i, k := range keys {
			ids[i] = k.id
		}
		r.Reset()
		return r
	}
	// Bounded selection: a max-heap (under less) of the best limit keys; the
	// root is the worst kept key and is evicted by anything better.
	heap := make([]orderKey, 0, limit)
	siftDown := func(i int) {
		for {
			l, rt := 2*i+1, 2*i+2
			largest := i
			if l < len(heap) && less(heap[largest], heap[l]) {
				largest = l
			}
			if rt < len(heap) && less(heap[largest], heap[rt]) {
				largest = rt
			}
			if largest == i {
				return
			}
			heap[i], heap[largest] = heap[largest], heap[i]
			i = largest
		}
	}
	for _, id := range ids {
		k := orderKey{v: value(id), id: id}
		if len(heap) < limit {
			heap = append(heap, k)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !less(heap[p], heap[i]) {
					break
				}
				heap[p], heap[i] = heap[i], heap[p]
				i = p
			}
			continue
		}
		if less(k, heap[0]) {
			heap[0] = k
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return less(heap[i], heap[j]) })
	for i, k := range heap {
		ids[i] = k.id
	}
	r.rc.Truncate(len(heap))
	r.Reset()
	return r
}

// release clears the cursor and returns it to the pool.
func (r *Rows) release() {
	r.closed = true
	r.rc.Reset()
	r.schema = nil
	r.Reset()
	rowsPool.Put(r)
}

// Close releases the cursor and its buffers for reuse by a future Select.
// The Rows must not be used afterwards. An immediate second Close is a
// no-op, but once a later Select may have re-acquired the pooled cursor a
// stale Close would release that newer result set — call Close exactly once
// per Select (one deferred Close per cursor, no early explicit Close
// alongside it).
func (r *Rows) Close() {
	if r.closed {
		return
	}
	r.release()
}

// finish ends a select under ctl: ordered ids, a rewound cursor, and the
// control's outcome (a satisfied limit is the requested outcome, hence
// success).
func (r *Rows) finish(ctl *query.Control) error {
	err := finish(ctl)
	if err == ErrLimitReached {
		err = nil
	}
	r.finalize()
	return err
}

// nameResolver adapts a plain column-name list to colResolver, so a facade
// resolves projections without pinning any one generation's table.
type nameResolver []string

func (n nameResolver) ColumnIndex(name string) int {
	for i, s := range n {
		if s == name {
			return i
		}
	}
	return -1
}

func (n nameResolver) Name(i int) string { return n[i] }
func (n nameResolver) NumCols() int      { return len(n) }

// Select executes q against any index built over a table this schema
// produced — including the baselines — and returns the matching rows. A
// facade of this package serves it through its own Select, so composite
// row-id spaces stay correct; the schema decodes the result when the index
// carries none of its own.
func (s *Schema) Select(idx Index, q Query, cols ...string) (*Rows, Stats) {
	r, st, _ := s.SelectContext(context.Background(), idx, q, nil, cols...)
	return r, st
}

// SelectContext is Schema.Select under ctx and opts, serving any index —
// including the baselines — with cancellation and LIMIT pushdown. See the
// facades' SelectContext method.
func (s *Schema) SelectContext(ctx context.Context, idx Index, q Query, opts *QueryOptions, cols ...string) (*Rows, Stats, error) {
	r, st, err := surfaceOf(idx, s).SelectContext(ctx, q, opts, cols...)
	return s.typed(r), st, err
}

// SelectOr evaluates a disjunction (OR) of conjunctive queries and returns
// the union of matching rows, each exactly once: the rectangles are
// decomposed into disjoint pieces first (see ExecuteOr).
func (s *Schema) SelectOr(idx Index, queries []Query, cols ...string) (*Rows, Stats) {
	r, st, _ := s.SelectOrContext(context.Background(), idx, queries, nil, cols...)
	return r, st
}

// SelectOrContext is SelectOr under ctx and opts: the disjoint pieces of
// the disjunction share one cancellation signal and one limit budget, so a
// LIMIT spanning an OR stops scanning globally after the limit-th match.
func (s *Schema) SelectOrContext(ctx context.Context, idx Index, queries []Query, opts *QueryOptions, cols ...string) (*Rows, Stats, error) {
	r, st, err := surfaceOf(idx, s).selectOr(ctx, queries, opts, projection{names: cols})
	return s.typed(r), st, err
}

// SelectColumns is SelectOrContext with the projection given as column
// positions in schema order — as a caller that resolved the names already
// holds it (floodsql's parsed statements) — so no name is looked up again.
// No positions select every column; a position out of range panics, as an
// unknown name does.
func (s *Schema) SelectColumns(ctx context.Context, idx Index, queries []Query, opts *QueryOptions, cols []int) (*Rows, Stats, error) {
	r, st, err := surfaceOf(idx, s).selectOr(ctx, queries, opts, projection{at: cols})
	return s.typed(r), st, err
}

// typed attaches the schema to a cursor whose index was built without one:
// the caller supplied it explicitly, so typed accessors should work.
func (s *Schema) typed(r *Rows) *Rows {
	if r.schema == nil {
		r.schema = s
	}
	return r
}
