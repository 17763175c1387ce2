package query

import "flood/internal/colstore"

// Aggregator accumulates a statistic over the rows an index produces. The
// scan stage delivers the survivors of a filtered block all at once, as the
// block's selection bitmap, so implementations aggregate under the mask
// (a popcount, a fold over the packed deltas) instead of being called row by
// row. Exact sub-ranges (every row in the range is known to match, §7.1) are
// delivered through AddExactRange so implementations can use
// cumulative-aggregate columns or arithmetic shortcuts instead of touching
// row data.
type Aggregator interface {
	// Reset clears the accumulator so the aggregator can be reused.
	Reset()
	// AddBlock accumulates the matching rows of block b of t: bit i of sel
	// set means row b*colstore.BlockSize+i matches. sel has at least one bit
	// set, none at or beyond the table's row count, and is only valid for
	// the duration of the call.
	AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap)
	// AddExactRange accumulates rows [start, end), all of which match.
	AddExactRange(t *colstore.Table, start, end int)
	// Result returns the accumulated value.
	Result() int64
}

// Count implements SELECT COUNT(*).
type Count struct{ n int64 }

// NewCount returns a COUNT(*) aggregator.
func NewCount() *Count { return &Count{} }

// Reset implements Aggregator.
func (c *Count) Reset() { c.n = 0 }

// AddBlock implements Aggregator: a popcount.
func (c *Count) AddBlock(_ *colstore.Table, _ int, sel *colstore.BlockBitmap) {
	c.n += int64(sel.Count())
}

// AddExactRange implements Aggregator; exact ranges never touch row data.
func (c *Count) AddExactRange(_ *colstore.Table, start, end int) { c.n += int64(end - start) }

// Result implements Aggregator.
func (c *Count) Result() int64 { return c.n }

// Sum implements SELECT SUM(col). When the table carries a cumulative
// aggregate for the column, exact sub-ranges resolve with two prefix lookups.
type Sum struct {
	col int
	s   int64
}

// NewSum returns a SUM aggregator over column col.
func NewSum(col int) *Sum { return &Sum{col: col} }

// Reset implements Aggregator.
func (s *Sum) Reset() { s.s = 0 }

// AddBlock implements Aggregator.
func (s *Sum) AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap) {
	s.s += t.Column(s.col).SumBlock(b, sel)
}

// AddExactRange implements Aggregator.
func (s *Sum) AddExactRange(t *colstore.Table, start, end int) {
	if t.HasAggregate(s.col) {
		s.s += t.PrefixSum(s.col, start, end)
		return
	}
	col := t.Column(s.col)
	var buf [colstore.BlockSize]int64
	for b := start / colstore.BlockSize; b*colstore.BlockSize < end; b++ {
		cnt := col.DecodeBlock(b, buf[:])
		lo := b * colstore.BlockSize
		i0, i1 := 0, cnt
		if lo < start {
			i0 = start - lo
		}
		if lo+cnt > end {
			i1 = end - lo
		}
		for i := i0; i < i1; i++ {
			s.s += buf[i]
		}
	}
}

// Result implements Aggregator.
func (s *Sum) Result() int64 { return s.s }

// Min implements SELECT MIN(col) (returns PosInf when nothing matched).
type Min struct {
	col int
	m   int64
	any bool
}

// NewMin returns a MIN aggregator over column col.
func NewMin(col int) *Min { return &Min{col: col, m: PosInf} }

// Reset implements Aggregator.
func (m *Min) Reset() { m.m, m.any = PosInf, false }

// AddBlock implements Aggregator.
func (m *Min) AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap) {
	m.any = true
	m.m = t.Column(m.col).MinBlock(b, sel, m.m)
}

// AddExactRange implements Aggregator. Blocks wholly inside the range
// resolve from the column's zone map (per-block min) without decoding;
// boundary blocks decode once and scan the decoded values — no per-row Get.
func (m *Min) AddExactRange(t *colstore.Table, start, end int) {
	if start >= end {
		return
	}
	m.any = true
	m.m = rangeExtremum(t.Column(m.col), start, end, m.m, false)
}

// Result implements Aggregator.
func (m *Min) Result() int64 { return m.m }

// rangeExtremum folds rows [start, end) of col into acc with min (wantMax
// false) or max (wantMax true) — the block walk shared by Min and Max.
// Blocks wholly inside the range resolve from the zone map without
// decoding; boundary blocks decode once, with the direction branch hoisted
// out of the value loop.
func rangeExtremum(col *colstore.Column, start, end int, acc int64, wantMax bool) int64 {
	var buf [colstore.BlockSize]int64
	for b := start / colstore.BlockSize; b*colstore.BlockSize < end; b++ {
		lo := b * colstore.BlockSize
		if lo >= start && lo+colstore.BlockSize <= end {
			bmin, bmax := col.BlockBounds(b)
			if wantMax {
				if bmax > acc {
					acc = bmax
				}
			} else if bmin < acc {
				acc = bmin
			}
			continue
		}
		cnt := col.DecodeBlock(b, buf[:])
		i0, i1 := 0, cnt
		if lo < start {
			i0 = start - lo
		}
		if lo+cnt > end {
			i1 = end - lo
		}
		if wantMax {
			for _, v := range buf[i0:i1] {
				if v > acc {
					acc = v
				}
			}
		} else {
			for _, v := range buf[i0:i1] {
				if v < acc {
					acc = v
				}
			}
		}
	}
	return acc
}

// Max implements SELECT MAX(col) (returns NegInf when nothing matched).
type Max struct {
	col int
	m   int64
	any bool
}

// NewMax returns a MAX aggregator over column col.
func NewMax(col int) *Max { return &Max{col: col, m: NegInf} }

// Reset implements Aggregator.
func (m *Max) Reset() { m.m, m.any = NegInf, false }

// AddBlock implements Aggregator.
func (m *Max) AddBlock(t *colstore.Table, b int, sel *colstore.BlockBitmap) {
	m.any = true
	m.m = t.Column(m.col).MaxBlock(b, sel, m.m)
}

// AddExactRange implements Aggregator. Blocks wholly inside the range
// resolve from the column's zone map (per-block max) without decoding;
// boundary blocks decode once and scan the decoded values — no per-row Get.
func (m *Max) AddExactRange(t *colstore.Table, start, end int) {
	if start >= end {
		return
	}
	m.any = true
	m.m = rangeExtremum(t.Column(m.col), start, end, m.m, true)
}

// Result implements Aggregator.
func (m *Max) Result() int64 { return m.m }
