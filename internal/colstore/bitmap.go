package colstore

// Per-column bitmap indexes for low-cardinality columns (the kelindar/column
// technique adapted to block-delta storage): one word-packed row bitmap per
// value of a dense, narrow domain — dictionary-coded strings are the
// canonical case. The bitmaps are range-encoded: bitmap v holds the rows
// whose value is at most min+v, so a range predicate over such a column
// (equality, a small IN set, a dictionary prefix range of any width) resolves
// per block as one AND-NOT of two bitmaps ANDed into the scan kernel's
// selection bitmap, replacing the residual decode-and-compare entirely.

// BlockWords is the number of 64-bit words in one block's selection bitmap
// (the scan kernel's per-block survivor mask).
const BlockWords = BlockSize / 64

// BlockBitmap is one block's selection bitmap: bit i of word i/64 set means
// row blockStart+i survives the filters applied so far.
type BlockBitmap [BlockWords]uint64

// BitmapIndex is a positional index over one column whose values span a
// small dense domain [min, min+card): for each value v the index stores a
// bitmap of the rows holding v or less, packed 64 rows per word (the last
// bitmap is therefore all ones). Bits at or beyond the row count are always
// zero. A BitmapIndex is immutable after construction and safe for
// concurrent readers.
type BitmapIndex struct {
	min    int64
	card   int
	n      int      // rows covered
	nWords int      // words per value bitmap: ceil(n/64)
	bits   []uint64 // card consecutive cumulative bitmaps of nWords each
}

// NewBitmapIndex builds a bitmap index over c, or returns nil when the
// column does not qualify: empty columns, and columns whose global value
// spread (max-min+1) exceeds maxCard, are skipped — a wide domain would cost
// O(spread · rows/8) bytes for bitmaps that are almost all zero.
func NewBitmapIndex(c *Column, maxCard int) *BitmapIndex { return newBitmapIndex(c, nil, maxCard) }

// newBitmapIndex is NewBitmapIndex for a caller that still holds the values
// it compressed into c: a non-nil raw is read instead of decoding c.
func newBitmapIndex(c *Column, raw []int64, maxCard int) *BitmapIndex {
	if c.n == 0 || maxCard <= 0 {
		return nil
	}
	minV, maxV := c.mins[0], c.maxs[0]
	for b := 1; b < len(c.mins); b++ {
		if c.mins[b] < minV {
			minV = c.mins[b]
		}
		if c.maxs[b] > maxV {
			maxV = c.maxs[b]
		}
	}
	spread := uint64(maxV) - uint64(minV)
	if spread >= uint64(maxCard) {
		return nil
	}
	bi := &BitmapIndex{
		min:    minV,
		card:   int(spread) + 1,
		n:      c.n,
		nWords: (c.n + 63) / 64,
	}
	bi.bits = make([]uint64, bi.card*bi.nWords)
	if raw == nil {
		raw = c.Decode()
	}
	for row, v := range raw {
		bi.bits[int(v-minV)*bi.nWords+row>>6] |= 1 << uint(row&63)
	}
	bi.accumulate()
	return bi
}

// accumulate turns per-value bitmaps (rows holding exactly min+v) into the
// cumulative ones the index stores, and reports whether the input was a
// partition of the rows: no row under two values, every row under one, no
// bit at or beyond the row count.
func (bi *BitmapIndex) accumulate() bool {
	nw := bi.nWords
	var overlap uint64
	for at := nw; at < len(bi.bits); at++ {
		overlap |= bi.bits[at] & bi.bits[at-nw]
		bi.bits[at] |= bi.bits[at-nw]
	}
	last := bi.bits[len(bi.bits)-nw:]
	for k, w := range last {
		want := ^uint64(0)
		if k == nw-1 && bi.n&63 != 0 {
			want = 1<<uint(bi.n&63) - 1
		}
		if w != want {
			return false
		}
	}
	return overlap == 0
}

// Cardinality returns the size of the indexed value domain (max-min+1, which
// bounds the number of per-value bitmaps).
func (bi *BitmapIndex) Cardinality() int { return bi.card }

// MinValue returns the smallest value of the indexed domain.
func (bi *BitmapIndex) MinValue() int64 { return bi.min }

// SizeBytes reports the in-memory footprint of the index.
func (bi *BitmapIndex) SizeBytes() int64 { return int64(len(bi.bits)) * 8 }

// AndBlock intersects sel with the set of rows of block b whose value lies
// in [lo, hi]: rows at most hi minus rows below lo, two bitmaps whatever the
// width of the range. Bounds outside the indexed domain clamp; an empty
// intersection zeroes sel.
func (bi *BitmapIndex) AndBlock(sel *BlockBitmap, b int, lo, hi int64) {
	if maxV := bi.min + int64(bi.card) - 1; hi > maxV {
		hi = maxV
	}
	if lo > hi || hi < bi.min {
		*sel = BlockBitmap{}
		return
	}
	w0 := b * BlockWords
	le := bi.bits[int(hi-bi.min)*bi.nWords:][:bi.nWords]
	var below []uint64 // nil: no row is below lo
	if lo > bi.min {
		below = bi.bits[int(lo-1-bi.min)*bi.nWords:][:bi.nWords]
	}
	for k := range sel {
		var m uint64
		if w0+k < bi.nWords {
			m = le[w0+k]
			if below != nil {
				m &^= below[w0+k]
			}
		}
		sel[k] &= m
	}
}
