package colstore

import (
	"math"
	"slices"
	"unsafe"
)

// Per-column bitmap indexes for low-cardinality columns (the kelindar/column
// technique adapted to block-delta storage) over a dense, narrow domain —
// dictionary-coded strings are the canonical case. The bitmaps are
// interval-encoded (Chan & Ioannidis, SIGMOD 1999): a domain of C values
// keeps ⌈C/2⌉ word-packed row bitmaps, bitmap j holding the rows whose value
// lies in [min+j, min+j+⌊C/2⌋-1], so a range predicate over such a column
// (equality, a small IN set, a dictionary prefix range of any width) resolves
// per block as one word formula over at most two of them, ANDed into the scan
// kernel's selection bitmap, replacing the residual decode-and-compare
// entirely — from half the bytes one bitmap per value would take. The
// bitmaps are kept per stripe of stripeBlocks blocks, each over its own value
// domain: a grid dimension's values span only a slice of the column's domain
// inside a cell, so a stripe stores bitmaps only for the values it holds.

// BlockWords is the number of 64-bit words in one block's selection bitmap
// (the scan kernel's per-block survivor mask).
const BlockWords = BlockSize / 64

// BlockBitmap is one block's selection bitmap: bit i of word i/64 set means
// row blockStart+i survives the filters applied so far.
type BlockBitmap [BlockWords]uint64

// Stripes: an index takes its value domains per stripe of stripeBlocks
// blocks, whose rows are stripeWords words — one 64-byte line — of a bitmap.
const (
	stripeBlocks = 4
	stripeRows   = stripeBlocks * BlockSize
	stripeWords  = stripeRows / 64
)

// BitmapIndex is a positional index over one column whose values span a
// small dense domain [min, min+card). It is cut into stripes of stripeRows
// rows, and each stripe indexes only its own domain [mn, mn+c) of c values,
// its blocks' zone-map range: with W = c/2 it keeps, for each j < ⌈c/2⌉,
// the bitmap I_j of the stripe's rows whose value lies in [mn+j, mn+j+W-1],
// in stripeWords words of 64 rows (the top value, mn+c-1, is in none of
// them). A constant stripe (c = 1) keeps none. Consecutive stripes over the
// same domain form a run, stored value-major like one index over the run's
// rows: I_j of every stripe of the run, then I_{j+1}, so a scan inside a run
// reads each bitmap it needs as one sequential stream. A BitmapIndex is
// immutable after construction and safe for concurrent readers.
type BitmapIndex struct {
	min   int64
	card  int
	n     int         // rows covered
	runs  []bitmapRun // the maximal runs of stripes over one domain, in row order
	runOf []uint32    // the run of each stripe
	bits  []uint64    // each run's interval bitmaps, run after run
}

// bitmapRun is a run of stripes over one domain and where its bitmaps start.
type bitmapRun struct {
	min   int64  // the domain's smallest value
	off   int    // the run's first bitmap word in bits
	start uint32 // the run's first stripe
	card  uint32 // values in the domain: max-min+1
	words uint32 // words per bitmap: stripeWords a stripe
}

// intervals returns how many interval bitmaps a stripe over a domain of
// card values keeps: ⌈card/2⌉, and none for a constant stripe, whose
// blocks the zone maps decide.
func intervals(card int) int {
	if card == 1 {
		return 0
	}
	return (card + 1) / 2
}

// NewBitmapIndex builds a bitmap index over c, or returns nil when the
// column does not qualify: empty columns, and columns whose global value
// spread (max-min+1) exceeds maxCard, are skipped — a wide domain would cost
// O(spread · rows/16) bytes for bitmaps that are almost all zero.
//
// The index is built a stripe at a time from the decoded column, its runs
// read off the zone maps first: its own words, allocated at their exact
// size, and one word per value of a domain wider than 64 are all it
// allocates besides.
func NewBitmapIndex(c *Column, maxCard int) *BitmapIndex {
	if c.n == 0 {
		return nil
	}
	bi := emptyBitmapIndex(slices.Min(c.mins), slices.Max(c.maxs), c.n, maxCard)
	if bi == nil {
		return nil
	}
	bi.layRuns(c.stripeBounds)
	var stack [64]uint64 // the per-value words of a domain of up to 64 values
	eqs := stack[:]
	if bi.card > len(stack) {
		eqs = make([]uint64, bi.card)
	}
	var buf [stripeRows]int64
	for _, run := range bi.runs {
		eq := eqs[:run.card]
		if intervals(len(eq)) == 0 {
			continue
		}
		for s := range int(run.words) / stripeWords {
			vals, b0 := buf[:0], (int(run.start)+s)*stripeBlocks
			for b := b0; b < min(b0+stripeBlocks, len(c.mins)); b++ {
				vals = vals[:len(vals)+c.DecodeBlock(b, buf[len(vals):])]
			}
			for w := range stripeWords {
				clear(eq)
				for i, v := range vals[min(w*64, len(vals)):min(w*64+64, len(vals))] {
					eq[v-run.min] |= 1 << uint(i)
				}
				setWord(bi.bits[run.off+s*stripeWords+w:], int(run.words), eq)
			}
		}
	}
	return bi
}

// stripeBounds returns the zone-map range of stripe s's blocks.
func (c *Column) stripeBounds(s int) (mn, mx int64) {
	b0, b1 := s*stripeBlocks, min(s*stripeBlocks+stripeBlocks, len(c.mins))
	return slices.Min(c.mins[b0:b1]), slices.Max(c.maxs[b0:b1])
}

// emptyBitmapIndex returns an index of n rows over the domain [minV, maxV]
// with no runs laid out yet, or nil when the domain is wider than maxCard.
func emptyBitmapIndex(minV, maxV int64, n, maxCard int) *BitmapIndex {
	spread := uint64(maxV) - uint64(minV)
	if n == 0 || maxCard <= 0 || spread >= uint64(maxCard) || spread >= math.MaxUint32 {
		return nil
	}
	return &BitmapIndex{min: minV, card: int(spread) + 1, n: n}
}

// stripes returns the number of stripes of bi's rows.
func (bi *BitmapIndex) stripes() int { return (bi.n + stripeRows - 1) / stripeRows }

// layRuns cuts bi's stripes, stripe s over the domain bounds(s), into
// maximal runs over one domain, and allocates their bitmaps, cleared, at
// their exact size.
func (bi *BitmapIndex) layRuns(bounds func(s int) (mn, mx int64)) {
	count, pmn, pmx := 0, int64(0), int64(0)
	for s := range bi.stripes() {
		if mn, mx := bounds(s); s == 0 || mn != pmn || mx != pmx {
			count, pmn, pmx = count+1, mn, mx
		}
	}
	bi.runs = make([]bitmapRun, 0, count)
	bi.runOf = make([]uint32, bi.stripes())
	for s := range bi.runOf {
		mn, mx := bounds(s)
		last := len(bi.runs) - 1
		if last < 0 || bi.runs[last].min != mn || int64(bi.runs[last].card) != mx-mn+1 {
			bi.runs = append(bi.runs, bitmapRun{min: mn, start: uint32(s), card: uint32(mx-mn) + 1})
			last++
		}
		bi.runs[last].words += stripeWords
		bi.runOf[s] = uint32(last)
	}
	words := 0
	for x := range bi.runs {
		bi.runs[x].off = words
		words += intervals(int(bi.runs[x].card)) * int(bi.runs[x].words)
	}
	if words > 0 {
		bi.bits = make([]uint64, words)
	}
}

// setWord stores, from eq, word 0 of the ⌈len(eq)/2⌉ interval bitmaps of a
// domain of len(eq) values laid stride words apart in bits. eq holds the
// same word of each value's own bitmap (eq[v]: the rows holding exactly the
// domain's v-th value), which must be disjoint: I_0 is the union of the
// first W values, and sliding an interval one value up drops value j and
// adds value j+W.
func setWord(bits []uint64, stride int, eq []uint64) {
	w := len(eq) / 2
	var in uint64
	for _, e := range eq[:w] {
		in |= e
	}
	for j := range (len(eq) + 1) / 2 {
		bits[j*stride] = in
		in = in&^eq[j] | eq[j+w]
	}
}

// SizeBytes reports the in-memory footprint of the index.
func (bi *BitmapIndex) SizeBytes() int64 {
	return int64(len(bi.bits))*8 + int64(len(bi.runs))*int64(unsafe.Sizeof(bitmapRun{})) + int64(len(bi.runOf))*4
}

// BitmapRange is a range predicate over a BitmapIndex, planned against each
// run's domain as AndBlock reaches it: the rows it selects in a run are
// fo ^ ((A ^ fa) & (B ^ fb)) for two of the run's interval bitmaps A and B
// and three masks that are each zero or all ones — fo alone when the range
// takes all or none of the domain — with the bits past the last row cleared.
type BitmapRange struct {
	bi         *BitmapIndex
	lo, hi     int64
	run        int    // the run a and b are in (-1: none yet)
	w0, nw     int    // the run holds the rows of words w0 to w0+nw, less the column's last block
	min        int64  // the domain planned for: min,
	card       uint32 // and card values (0: none yet)
	konst      bool   // the range takes all or none of the domain: no bitmap
	i, j       int    // A and B, numbered within the run
	fa, fb, fo uint64
	a, b       []uint64 // A's and B's words over the run
}

// Range returns the predicate lo <= value <= hi over bi, for AndBlock.
func (bi *BitmapIndex) Range(lo, hi int64) BitmapRange {
	return BitmapRange{bi: bi, lo: lo, hi: hi, run: -1}
}

// plan plans r against the domain of card values from mn, clamping the
// range to it, as at most two interval bitmaps. With x and y its clamped
// bounds as offsets from mn, L = y-x+1 values wide, W = card/2 and
// K = ⌈card/2⌉ intervals:
//
//	empty                 no rows
//	whole domain          every row
//	y = card-1, x >= W    ¬I_0 ∧ ¬I_{x-W}
//	y = card-1, x < W     I_x ∨ ¬I_0
//	L = W                 I_x
//	L < W, y+1 < K        I_x ∧ ¬I_{y+1}
//	L < W, x < K          I_x ∧ I_{y-W+1}
//	L < W                 I_{y-W+1} ∧ ¬I_{x-W}
//	L > W                 I_x ∨ I_{y-W+1}
func (r *BitmapRange) plan(mn int64, card uint32) {
	const ones = ^uint64(0)
	r.min, r.card = mn, card
	r.konst, r.i, r.j, r.fa, r.fb, r.fo = false, 0, 0, 0, 0, 0
	lo, hi := max(r.lo, mn), min(r.hi, mn+int64(card)-1)
	if lo > hi {
		r.konst = true
		return
	}
	c, w, k := int(card), int(card)/2, (int(card)+1)/2
	x, y := int(lo-mn), int(hi-mn)
	switch l := y - x + 1; {
	case l == c:
		r.konst, r.fo = true, ones
	case y == c-1 && x >= w:
		r.j, r.fa, r.fb = x-w, ones, ones
	case y == c-1: // I_x ∨ ¬I_0 = ¬(¬I_x ∧ I_0)
		r.i, r.fa, r.fo = x, ones, ones
	case l == w:
		r.i, r.j = x, x
	case l < w && y+1 < k:
		r.i, r.j, r.fb = x, y+1, ones
	case l < w && x < k:
		r.i, r.j = x, y-w+1
	case l < w:
		r.i, r.j, r.fb = y-w+1, x-w, ones
	default: // I_x ∨ I_{y-W+1} = ¬(¬I_x ∧ ¬I_{y-W+1})
		r.i, r.j, r.fa, r.fb, r.fo = x, y-w+1, ones, ones, ones
	}
}

// enter points r at the run holding block b, replanning when the run has
// another domain than the last one planned for.
func (r *BitmapRange) enter(b int) {
	bi := r.bi
	x := int(bi.runOf[b/stripeBlocks])
	run := &bi.runs[x]
	if run.min != r.min || run.card != r.card {
		r.plan(run.min, run.card)
	}
	r.run, r.w0, r.nw = x, int(run.start)*stripeWords, int(run.words)
	if x == len(bi.runs)-1 {
		r.nw = (bi.n-1)/BlockSize*BlockWords - r.w0
	}
	if !r.konst {
		r.a = bi.bits[run.off+r.i*int(run.words):][:run.words]
		r.b = bi.bits[run.off+r.j*int(run.words):][:run.words]
	}
}

// AndBlock intersects sel with the rows of block b that r selects: two word
// loads and one branch-free formula per selection word, whatever the width
// of the range.
func (r *BitmapRange) AndBlock(sel *BlockBitmap, b int) {
	w := b*BlockWords - r.w0
	if uint(w) >= uint(r.nw) {
		if b >= (r.bi.n-1)/BlockSize {
			r.andLast(sel, b)
			return
		}
		r.enter(b)
		w = b*BlockWords - r.w0
	}
	if r.konst {
		for k := range sel {
			sel[k] &= r.fo
		}
		return
	}
	a := (*[BlockWords]uint64)(r.a[w:])
	bb := (*[BlockWords]uint64)(r.b[w:])
	for k := range sel {
		sel[k] &= r.fo ^ ((a[k] ^ r.fa) & (bb[k] ^ r.fb))
	}
}

// andLast is AndBlock for the column's last block, whose rows past the last
// are cleared.
func (r *BitmapRange) andLast(sel *BlockBitmap, b int) {
	if r.run != len(r.bi.runs)-1 {
		r.enter(b)
	}
	w := b*BlockWords - r.w0
	for k := range sel {
		m := r.fo
		if !r.konst {
			m ^= (r.a[w+k] ^ r.fa) & (r.b[w+k] ^ r.fb)
		}
		if rows := r.bi.n - b*BlockSize - k*64; rows < 64 {
			m &= 1<<uint(max(rows, 0)) - 1
		}
		sel[k] &= m
	}
}
