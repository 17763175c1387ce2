package colstore

// Per-column bitmap indexes for low-cardinality columns (the kelindar/column
// technique adapted to block-delta storage) over a dense, narrow domain —
// dictionary-coded strings are the canonical case. The bitmaps are
// interval-encoded (Chan & Ioannidis, SIGMOD 1999): a domain of C values
// keeps ⌈C/2⌉ word-packed row bitmaps, bitmap j holding the rows whose value
// lies in [min+j, min+j+⌊C/2⌋-1], so a range predicate over such a column
// (equality, a small IN set, a dictionary prefix range of any width) resolves
// per block as one word formula over at most two of them, ANDed into the scan
// kernel's selection bitmap, replacing the residual decode-and-compare
// entirely — from half the bytes one bitmap per value would take.

// BlockWords is the number of 64-bit words in one block's selection bitmap
// (the scan kernel's per-block survivor mask).
const BlockWords = BlockSize / 64

// BlockBitmap is one block's selection bitmap: bit i of word i/64 set means
// row blockStart+i survives the filters applied so far.
type BlockBitmap [BlockWords]uint64

// BitmapIndex is a positional index over one column whose values span a
// small dense domain [min, min+card): with W = card/2 it stores, for each
// j < ⌈card/2⌉, the bitmap I_j of the rows whose value lies in
// [min+j, min+j+W-1], packed 64 rows per word (the top value, min+card-1,
// is in none of them). Bits at or beyond the row count are always zero. A
// BitmapIndex is immutable after construction and safe for concurrent
// readers.
type BitmapIndex struct {
	min    int64
	card   int
	n      int      // rows covered
	nWords int      // words per bitmap: ceil(n/64)
	bits   []uint64 // ⌈card/2⌉ consecutive interval bitmaps of nWords each
}

// NewBitmapIndex builds a bitmap index over c, or returns nil when the
// column does not qualify: empty columns, and columns whose global value
// spread (max-min+1) exceeds maxCard, are skipped — a wide domain would cost
// O(spread · rows/16) bytes for bitmaps that are almost all zero.
//
// The index is built a block at a time from the decoded column: its own
// words and one word per value are all it allocates besides.
func NewBitmapIndex(c *Column, maxCard int) *BitmapIndex {
	if c.n == 0 {
		return nil
	}
	minV, maxV := c.mins[0], c.maxs[0]
	for b := 1; b < len(c.mins); b++ {
		minV, maxV = min(minV, c.mins[b]), max(maxV, c.maxs[b])
	}
	bi := emptyBitmapIndex(minV, maxV, c.n, maxCard)
	if bi == nil {
		return nil
	}
	var stack [64]uint64
	eq := bi.valueWords(stack[:])
	var buf [BlockSize]int64
	for b := range c.NumBlocks() {
		bi.setBlock(b, buf[:c.DecodeBlock(b, buf[:])], eq)
	}
	return bi
}

// emptyBitmapIndex returns an index of n rows over the domain [minV, maxV]
// with every bitmap clear, for setBlock to fill block by block, or nil when
// the domain is wider than maxCard.
func emptyBitmapIndex(minV, maxV int64, n, maxCard int) *BitmapIndex {
	spread := uint64(maxV) - uint64(minV)
	if n == 0 || maxCard <= 0 || spread >= uint64(maxCard) {
		return nil
	}
	bi := &BitmapIndex{min: minV, card: int(spread) + 1, n: n, nWords: (n + 63) / 64}
	bi.bits = make([]uint64, (bi.card+1)/2*bi.nWords)
	return bi
}

// valueWords returns the one word per value that setBlock works in: stack,
// when it holds the domain.
func (bi *BitmapIndex) valueWords(stack []uint64) []uint64 {
	if bi.card <= len(stack) {
		return stack[:bi.card]
	}
	return make([]uint64, bi.card)
}

// setBlock sets block b's rows, whose values are vals, in every interval
// bitmap, one 64-row word at a time from the word's per-value bitmaps built
// in eq (valueWords): the index's own words and one word per value are all a
// build allocates.
func (bi *BitmapIndex) setBlock(b int, vals []int64, eq []uint64) {
	for k := 0; k < len(vals); k += 64 {
		clear(eq)
		for i, v := range vals[k:min(k+64, len(vals))] {
			eq[v-bi.min] |= 1 << uint(i)
		}
		bi.setWord(b*BlockWords+k/64, eq)
	}
}

// setWord stores word k of every interval bitmap from eq, word k of each
// value's own bitmap (eq[v]: the rows holding exactly min+v), which must be
// disjoint: I_0 is the union of the first W values, and sliding an interval
// one value up drops value j and adds value j+W.
func (bi *BitmapIndex) setWord(k int, eq []uint64) {
	w := bi.card / 2
	var in uint64
	for _, e := range eq[:w] {
		in |= e
	}
	for j, at := 0, k; at < len(bi.bits); j, at = j+1, at+bi.nWords {
		bi.bits[at] = in
		in = in&^eq[j] | eq[j+w]
	}
}

// Cardinality returns the size of the indexed value domain (max-min+1).
func (bi *BitmapIndex) Cardinality() int { return bi.card }

// MinValue returns the smallest value of the indexed domain.
func (bi *BitmapIndex) MinValue() int64 { return bi.min }

// SizeBytes reports the in-memory footprint of the index.
func (bi *BitmapIndex) SizeBytes() int64 { return int64(len(bi.bits)) * 8 }

// AndBlock intersects sel with the set of rows of block b whose value lies
// in [lo, hi]. Bounds outside the indexed domain clamp; an empty
// intersection zeroes sel. A scan over many blocks plans the range once with
// Range instead.
func (bi *BitmapIndex) AndBlock(sel *BlockBitmap, b int, lo, hi int64) {
	r := bi.Range(lo, hi)
	r.AndBlock(sel, b)
}

// BitmapRange is a range predicate planned against a BitmapIndex: the rows
// it selects are fo ^ ((A ^ fa) & (B ^ fb)) for two of the index's interval
// bitmaps A and B and three masks that are each zero or all ones, with the
// bits past the last row cleared.
type BitmapRange struct {
	a, b       []uint64
	fa, fb, fo uint64
	tail       uint64 // the bits of the last word that are rows
}

// Range plans the predicate lo <= value <= hi, clamped to the domain, as
// at most two interval bitmaps. With x and y its clamped bounds as offsets
// from the smallest value, L = y-x+1 values wide, W = card/2 and
// K = ⌈card/2⌉ intervals:
//
//	empty                 I_0 ∧ ¬I_0
//	whole domain          ¬(I_0 ∧ ¬I_0)
//	y = card-1, x >= W    ¬I_0 ∧ ¬I_{x-W}
//	y = card-1, x < W     I_x ∨ ¬I_0
//	L = W                 I_x
//	L < W, y+1 < K        I_x ∧ ¬I_{y+1}
//	L < W, x < K          I_x ∧ I_{y-W+1}
//	L < W                 I_{y-W+1} ∧ ¬I_{x-W}
//	L > W                 I_x ∨ I_{y-W+1}
func (bi *BitmapIndex) Range(lo, hi int64) (r BitmapRange) {
	const ones = ^uint64(0)
	r.tail = ones
	if rem := bi.n & 63; rem != 0 {
		r.tail = 1<<uint(rem) - 1
	}
	lo = max(lo, bi.min)
	hi = min(hi, bi.min+int64(bi.card)-1)
	c, w, k := bi.card, bi.card/2, (bi.card+1)/2
	i, j := 0, 0 // the intervals A and B
	if lo > hi {
		r.fb = ones
	} else {
		x, y := int(lo-bi.min), int(hi-bi.min)
		switch l := y - x + 1; {
		case l == c:
			r.fb, r.fo = ones, ones
		case y == c-1 && x >= w:
			j, r.fa, r.fb = x-w, ones, ones
		case y == c-1: // I_x ∨ ¬I_0 = ¬(¬I_x ∧ I_0)
			i, r.fa, r.fo = x, ones, ones
		case l == w:
			i, j = x, x
		case l < w && y+1 < k:
			i, j, r.fb = x, y+1, ones
		case l < w && x < k:
			i, j = x, y-w+1
		case l < w:
			i, j, r.fb = y-w+1, x-w, ones
		default: // I_x ∨ I_{y-W+1} = ¬(¬I_x ∧ ¬I_{y-W+1})
			i, j, r.fa, r.fb, r.fo = x, y-w+1, ones, ones, ones
		}
	}
	r.a = bi.bits[i*bi.nWords:][:bi.nWords]
	r.b = bi.bits[j*bi.nWords:][:bi.nWords]
	return r
}

// word returns word k of the rows r selects.
func (r *BitmapRange) word(k int) uint64 {
	m := r.fo ^ ((r.a[k] ^ r.fa) & (r.b[k] ^ r.fb))
	if k == len(r.a)-1 {
		m &= r.tail
	}
	return m
}

// AndBlock intersects sel with the rows of block b that r selects: two word
// loads and one branch-free formula per selection word, whatever the width
// of the range.
func (r *BitmapRange) AndBlock(sel *BlockBitmap, b int) {
	w0 := b * BlockWords
	if w0+BlockWords < len(r.a) {
		a := (*[BlockWords]uint64)(r.a[w0:])
		bb := (*[BlockWords]uint64)(r.b[w0:])
		for k := range sel {
			sel[k] &= r.fo ^ ((a[k] ^ r.fa) & (bb[k] ^ r.fb))
		}
		return
	}
	for k := range sel {
		var m uint64
		if w0+k < len(r.a) {
			m = r.word(w0 + k)
		}
		sel[k] &= m
	}
}
