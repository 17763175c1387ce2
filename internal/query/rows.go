package query

import (
	"math/bits"
	"slices"

	"flood/internal/colstore"
)

// RowSource is one physical table whose rows a RowCollector observed, mapped
// into the collector's global row-id space: the source's physical row r has
// global id Start+r. Composite indexes (a base index and its insert log)
// feed a query from several tables; sources record, in arrival order, how
// those tables tile the id space so collected ids can be resolved back to
// (table, physical row) for decoding.
type RowSource struct {
	// Table is the scanned table.
	Table *colstore.Table
	// Start is the global row id of the table's physical row 0.
	Start int64
	// End is Start + Table.NumRows(). Sources cover disjoint [Start, End)
	// except where PinSourceAt placed two encodings of the same rows.
	End int64
}

// RowCollector is an Aggregator that materializes the matching rows
// themselves instead of folding them into a statistic: it gathers physical
// row ids, riding the same scan kernel and block-mask delivery as every
// other aggregator, so row retrieval costs
// exactly one id append per matching row on the zero-allocation sequential
// path. It implements Mergeable, so large scans fan out over the morsel
// engine and batched/disjunction execution work unchanged.
//
// Ids are global: the first table scanned occupies [0, NumRows), the next
// is offset past it, and so on — Sources records the tiling. PinSource
// pre-registers a table so composite indexes can guarantee base rows sort
// before insert-log rows, and PinSourceAt places a table at an id range the
// caller computed, so a log row keeps one id whichever table encodes it and
// whichever tables delivered before it. A RowCollector is
// reusable via Reset; it is not safe for concurrent use (the morsel engine
// gives each worker its own clone).
type RowCollector struct {
	ids       []int64
	sources   []RowSource
	watermark int64
	curT      *colstore.Table
	curOff    int64
}

// NewRowCollector returns an empty collector.
func NewRowCollector() *RowCollector { return &RowCollector{} }

// Reset implements Aggregator, clearing collected ids and sources while
// retaining capacity.
func (rc *RowCollector) Reset() {
	rc.ids = rc.ids[:0]
	rc.sources = rc.sources[:0]
	rc.watermark = 0
	rc.curT = nil
	rc.curOff = 0
}

// PinSource registers t in the collector's id space before any scan, so its
// rows occupy the next id range even if another table happens to deliver
// first (or t delivers nothing at all), and returns the id of its physical
// row 0. Composite indexes pin the base table so base rows always map to ids
// [0, baseRows).
func (rc *RowCollector) PinSource(t *colstore.Table) int64 {
	rc.setTable(t)
	return rc.curOff
}

// PinSourceAt makes t the current source with its physical row 0 at id
// start, unless t is already registered. The insert log places every table
// it scans this way: its sealed table at the log's first id whether or not
// it delivered anything, and the partial block a read encodes at the id of
// that block's first row — again on every read, so a later, longer sealed
// table may cover the same ids. Two tables placed over one id range must
// hold the same rows there (the log's published prefix is immutable), so
// resolving an id through either decodes the same values.
func (rc *RowCollector) PinSourceAt(t *colstore.Table, start int64) {
	for i := range rc.sources {
		if rc.sources[i].Table == t {
			rc.curT, rc.curOff = t, rc.sources[i].Start
			return
		}
	}
	end := start + int64(t.NumRows())
	rc.sources = append(rc.sources, RowSource{Table: t, Start: start, End: end})
	rc.curT, rc.curOff = t, start
	if end > rc.watermark {
		rc.watermark = end
	}
}

// setTable makes t the current source, registering it at the watermark on
// first sight.
func (rc *RowCollector) setTable(t *colstore.Table) { rc.PinSourceAt(t, rc.watermark) }

// AddBlock implements Aggregator: record the matching physical rows of block
// b, in ascending order.
func (rc *RowCollector) AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap) {
	if t != rc.curT {
		rc.setTable(t)
	}
	ids := rc.ids
	for wi, w := range sel {
		base := rc.curOff + int64(b*colstore.BlockSize+wi*64)
		for ; w != 0; w &= w - 1 {
			ids = append(ids, base+int64(bits.TrailingZeros64(w)))
		}
	}
	rc.ids = ids
}

// AddExactRange implements Aggregator: materialize the run [start, end) of
// physical rows, all known to match, as consecutive ids.
func (rc *RowCollector) AddExactRange(t *colstore.Table, start, end int) {
	if t != rc.curT {
		rc.setTable(t)
	}
	off := rc.curOff
	ids := rc.ids
	for r := start; r < end; r++ {
		ids = append(ids, off+int64(r))
	}
	rc.ids = ids
}

// Result implements Aggregator: the number of collected rows.
func (rc *RowCollector) Result() int64 { return int64(len(rc.ids)) }

// Len returns the number of collected rows.
func (rc *RowCollector) Len() int { return len(rc.ids) }

// IDs exposes the collected global row ids (owned by the collector; valid
// until the next Reset).
func (rc *RowCollector) IDs() []int64 { return rc.ids }

// Truncate keeps only the first n collected ids.
func (rc *RowCollector) Truncate(n int) {
	if n < len(rc.ids) {
		rc.ids = rc.ids[:n]
	}
}

// SkipTo advances the collector's watermark to w, so the next table to
// register (by PinSource or first delivery) starts its id range at w.
// Sharded execution carves the id space into fixed per-shard strides with
// it — shard s's sources tile from s's stride base, making a collected id's
// owning shard recoverable by arithmetic. Ids already collected are
// untouched; w below the current watermark is ignored so the id space stays
// collision-free.
func (rc *RowCollector) SkipTo(w int64) {
	if w > rc.watermark {
		rc.watermark = w
		rc.curT = nil
	}
}

// Sources exposes the observed tables tiling the id space, in registration
// order.
func (rc *RowCollector) Sources() []RowSource { return rc.sources }

// Resolve maps a global id back to its table and physical row. ok is false
// for ids outside every source.
func (rc *RowCollector) Resolve(id int64) (t *colstore.Table, row int, ok bool) {
	for i := range rc.sources {
		if s := &rc.sources[i]; id >= s.Start && id < s.End {
			return s.Table, int(id - s.Start), true
		}
	}
	return nil, 0, false
}

// Sort orders the collected ids ascending, making the result independent of
// parallel merge order: base-table rows come out in physical order, followed
// by each later source in its own physical order.
func (rc *RowCollector) Sort() { slices.Sort(rc.ids) }

// CloneEmpty implements Mergeable.
func (rc *RowCollector) CloneEmpty() Mergeable { return &RowCollector{} }

// Merge implements Mergeable, folding another collector's ids into this one.
// When both collectors observed the same sources in the same order (the
// morsel engine's clones always do — they scan one shared table), ids append
// unchanged; otherwise each id is re-based from the other's source tiling
// into this one's.
func (rc *RowCollector) Merge(other Mergeable) {
	o := other.(*RowCollector)
	if len(o.ids) == 0 {
		return
	}
	if rc.sameSources(o) {
		rc.ids = append(rc.ids, o.ids...)
		return
	}
	// Re-base: ids arrive in per-source runs, so cache the active mapping.
	var delta int64
	lo, hi := int64(1), int64(0) // empty interval forces the first lookup
	for _, id := range o.ids {
		if id < lo || id >= hi {
			s := o.sourceOf(id)
			rc.setTable(s.Table)
			lo, hi = s.Start, s.End
			delta = rc.curOff - s.Start
		}
		rc.ids = append(rc.ids, id+delta)
	}
	rc.curT = nil // force re-resolution on the next delivery
}

// sameSources reports whether o's source tiling is identical to rc's (same
// tables at the same offsets, or rc still empty and adoptable as-is).
func (rc *RowCollector) sameSources(o *RowCollector) bool {
	if len(rc.sources) == 0 && len(rc.ids) == 0 {
		// Adopt the other collector's tiling wholesale.
		rc.sources = append(rc.sources, o.sources...)
		rc.watermark = o.watermark
		rc.curT = nil
		return true
	}
	if len(rc.sources) != len(o.sources) {
		return false
	}
	for i := range rc.sources {
		if rc.sources[i].Table != o.sources[i].Table || rc.sources[i].Start != o.sources[i].Start {
			return false
		}
	}
	return true
}

// sourceOf returns the source containing id; it panics when id is outside
// every source (collected ids are always inside one by construction).
func (rc *RowCollector) sourceOf(id int64) *RowSource {
	for i := range rc.sources {
		if s := &rc.sources[i]; id >= s.Start && id < s.End {
			return s
		}
	}
	panic("query: row id outside every collected source")
}

var (
	_ Aggregator = (*RowCollector)(nil)
	_ Mergeable  = (*RowCollector)(nil)
)
