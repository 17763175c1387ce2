package core

import (
	"fmt"

	"flood/internal/colstore"
)

// MergeRows returns a new table holding t's rows followed by the given
// column-major extra rows, preserving which columns have cumulative
// aggregates enabled. extra must have one slice per table column, all of
// equal length; with no extra rows the input table is returned unchanged.
// Neither input is modified, so callers may pass live (immutable-prefix)
// buffers without copying them first.
func MergeRows(t *colstore.Table, extra [][]int64) (*colstore.Table, error) {
	return MergeRowsLive(t, nil, extra, nil)
}

// MergeRowsLive is MergeRows restricted to live rows: rows of t marked dead
// in tomb and extra rows marked dead in extraTomb are dropped instead of
// copied. Either tombstone set may be nil (nothing dead) or cover more rows
// than its input (the extra slice is a frozen prefix of a still-growing
// buffer); rows beyond a set's coverage are live. This is the compaction
// step: a rebuild over the merged result physically discards deleted rows,
// and the fresh index starts with an empty tombstone set.
func MergeRowsLive(t *colstore.Table, tomb *colstore.Tombstones, extra [][]int64, extraTomb *colstore.Tombstones) (*colstore.Table, error) {
	src, err := mergeSource(t, tomb, extra, extraTomb, Options{})
	if err != nil {
		return nil, err
	}
	if src.cols == nil {
		return t, nil
	}
	merged, err := colstore.NewTable(t.Names(), src.cols)
	if err != nil {
		return nil, err
	}
	for c := 0; c < t.NumCols(); c++ {
		if t.HasAggregate(c) {
			merged.EnableAggregate(c)
		}
	}
	return merged, nil
}

// mergeSource is the merge itself, stopping at raw columns: t's live rows
// followed by the live extra rows, as a Source a build reads directly —
// nothing is compressed only to be decoded again. With nothing added and
// nothing dead the source is t as it stands.
func mergeSource(t *colstore.Table, tomb *colstore.Tombstones, extra [][]int64, extraTomb *colstore.Tombstones, opts Options) (*Source, error) {
	if len(extra) != 0 && len(extra) != t.NumCols() {
		return nil, fmt.Errorf("core: merge has %d columns, table has %d", len(extra), t.NumCols())
	}
	add := 0
	if len(extra) > 0 {
		add = len(extra[0])
	}
	for c := range extra {
		if len(extra[c]) != add {
			return nil, fmt.Errorf("core: merge column %d has %d rows, column 0 has %d", c, len(extra[c]), add)
		}
	}
	src := tableSource(t, opts)
	if add == 0 && tomb.Dead() == 0 {
		return src, nil
	}
	cols := make([][]int64, t.NumCols())
	parallelFor(len(cols), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			buf := make([]int64, 0, t.NumRows()+add)
			col := src.column(c, &buf)
			if tomb.Dead() > 0 {
				live := col[:0]
				for i, v := range col {
					if !tomb.Has(i) {
						live = append(live, v)
					}
				}
				col = live
			}
			for i := 0; i < add; i++ {
				if !extraTomb.Has(i) {
					col = append(col, extra[c][i])
				}
			}
			cols[c] = col
		}
	})
	src.cols, src.n = cols, len(cols[0])
	return src, nil
}

// Rebuild constructs a fresh index over f's live rows plus the given
// column-major extra rows, reusing f's layout and options. It is the merge
// step of the differential-update scheme (§8, "Insertions"): the grid shape
// is kept and only the physical placement is recomputed, so it is much
// cheaper than a full relearn. Rows tombstoned in f are compacted away — the
// returned index holds the same logical contents with an empty tombstone
// set. f itself is not modified and remains fully usable — callers swap the
// returned index in when ready.
func (f *Flood) Rebuild(extra [][]int64) (*Flood, error) {
	return f.RebuildLive(extra, nil)
}

// RebuildLive is Rebuild with a tombstone set over the extra rows as well:
// a wrapper that tombstones buffered rows (the adaptive side log) passes it
// so their deletions compact in the same pass.
func (f *Flood) RebuildLive(extra [][]int64, extraTomb *colstore.Tombstones) (*Flood, error) {
	return f.RebuildCompact(extra, f.tomb.Load(), extraTomb)
}

// RebuildCompact is RebuildLive against explicitly captured tombstone sets
// rather than f's current ones. Concurrent wrappers use it: a background
// rebuild captures the tombstones together with its frozen row snapshot, and
// deletions that land during the build are re-applied to the fresh index
// separately — compacting a later tombstone version here would make those
// deletions apply twice.
func (f *Flood) RebuildCompact(extra [][]int64, tomb, extraTomb *colstore.Tombstones) (*Flood, error) {
	src, err := mergeSource(f.t, tomb, extra, extraTomb, f.opts)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	return src.Build(f.layout)
}
