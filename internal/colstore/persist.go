package colstore

import (
	"errors"
	"fmt"
	"math"

	"flood/internal/wire"
)

// Encode serializes the table (compressed columns and aggregate-column
// presence) to w.
func (t *Table) Encode(w *wire.Writer) {
	w.Tag("TBL1")
	w.Strs(t.names)
	w.Int(t.n)
	for _, c := range t.cols {
		w.Int(c.n)
		w.I64s(c.mins)
		w.U8s(c.widths)
		w.U32s(c.offsets)
		w.U64s(c.words)
	}
	for _, p := range t.prefixes {
		w.Bool(p != nil)
	}
}

// DecodeTable reads a table written by Encode. Aggregate companions are
// rebuilt from the column data. Structural invariants of every column are
// verified before any packed data is decoded, so corrupt input yields an
// error rather than out-of-range panics later.
func DecodeTable(r *wire.Reader) (*Table, error) {
	r.Expect("TBL1")
	names := r.Strs()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("colstore: decoding table header: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("colstore: table declares %d rows", n)
	}
	t := &Table{
		names:    names,
		cols:     make([]*Column, len(names)),
		prefixes: make([][]int64, len(names)),
		n:        n,
	}
	for i := range t.cols {
		c := &Column{
			n:       r.Int(),
			mins:    r.I64s(),
			widths:  r.U8s(),
			offsets: r.U32s(),
			words:   r.U64s(),
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("colstore: decoding column %d: %w", i, err)
		}
		if c.n != n {
			return nil, fmt.Errorf("colstore: column %d has %d rows, table has %d", i, c.n, n)
		}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("colstore: column %d: %w", i, err)
		}
		if err := c.computeMaxs(); err != nil {
			return nil, fmt.Errorf("colstore: column %d: %w", i, err)
		}
		t.cols[i] = c
	}
	for i := range t.prefixes {
		if r.Bool() {
			t.buildPrefix(i, t.cols[i].Decode())
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("colstore: decoding table: %w", err)
	}
	return t, nil
}

// EncodeSealed writes a table that grows a block at a time as it stands: t,
// which must hold whole blocks, then tail — the rows past them, fewer than
// BlockSize, one slice per column — as a second table.
func (t *Table) EncodeSealed(w *wire.Writer, tail [][]int64) {
	if t.n%BlockSize != 0 || len(tail[0]) >= BlockSize {
		panic("colstore: EncodeSealed needs whole blocks, then a partial block")
	}
	t.Encode(w)
	MustNewTable(t.names, tail).Encode(w)
}

// DecodeSealed reads what EncodeSealed writes, for a table of cols columns,
// and returns the rows of both tables, column-major. On top of DecodeTable's
// structural checks it refuses, with wire.ErrChecksum, a first table that is
// not whole blocks, a second of BlockSize rows or more, and a column count
// other than cols.
func DecodeSealed(r *wire.Reader, cols int) ([][]int64, error) {
	out := make([][]int64, cols)
	for i := 0; i < 2; i++ {
		t, err := DecodeTable(r)
		if err != nil || t.NumCols() != cols || i == 0 && t.n%BlockSize != 0 || i == 1 && t.n >= BlockSize {
			return nil, fmt.Errorf("colstore: sealed table part %d of 2 is not %d columns of whole blocks, then of under %d rows: %w",
				i+1, cols, BlockSize, errors.Join(err, wire.ErrChecksum))
		}
		for c := range out {
			out[c] = append(out[c], t.Raw(c)...)
		}
	}
	return out, nil
}

// validate checks the structural invariants newColumn establishes: per-block
// metadata slices sized to the block count, bit widths within [0, 64], and
// offsets forming the exact cumulative word layout the packed data occupies.
// Decoding a column that fails any of these would index out of range.
func (c *Column) validate() error {
	if c.n < 0 {
		return fmt.Errorf("negative length %d", c.n)
	}
	nBlocks := (c.n + BlockSize - 1) / BlockSize
	if len(c.mins) != nBlocks || len(c.widths) != nBlocks || len(c.offsets) != nBlocks {
		return fmt.Errorf("%d rows need %d blocks, have %d mins / %d widths / %d offsets",
			c.n, nBlocks, len(c.mins), len(c.widths), len(c.offsets))
	}
	words := 0
	for b := 0; b < nBlocks; b++ {
		w := int(c.widths[b])
		if w > 64 {
			return fmt.Errorf("block %d has bit width %d", b, w)
		}
		if int(c.offsets[b]) != words {
			return fmt.Errorf("block %d offset %d, expected %d", b, c.offsets[b], words)
		}
		cnt := BlockSize
		if b == nBlocks-1 {
			cnt = c.n - b*BlockSize
		}
		words += (cnt*w + 63) / 64
	}
	if len(c.words) != words {
		return fmt.Errorf("packed data has %d words, layout needs %d", len(c.words), words)
	}
	return nil
}

// Encode serializes bi for embedding in a snapshot section. The wire form
// is one bitmap per value of the column's domain over every row, holding the
// rows with exactly that value — what the index stored before it was
// interval-encoded and striped — so each value's bitmap is derived from the
// stripes on the way out and snapshots read the same on either side of
// those changes.
func (bi *BitmapIndex) Encode(w *wire.Writer) {
	nWords := (bi.n + 63) / 64
	w.I64(bi.min)
	w.Int(bi.card)
	w.Int(bi.n)
	w.Int(bi.card * nWords)
	nBlocks := (bi.n + BlockSize - 1) / BlockSize
	for v := range int64(bi.card) {
		r := bi.Range(bi.min+v, bi.min+v)
		for b := range nBlocks {
			sel := BlockBitmap{^uint64(0), ^uint64(0)}
			r.AndBlock(&sel, b)
			for _, m := range sel[:min(BlockWords, nWords-b*BlockWords)] {
				w.U64(m)
			}
		}
	}
}

// DecodeBitmapIndex reads a bitmap index written by BitmapIndex.Encode and
// validates it against a table of n rows: its sizes and domain, and — the
// CRC only proves the bytes are the ones written — that the per-value
// bitmaps partition the rows, checked word by word as each stripe's domain
// is read off them; the stripes' intervals are then set from them.
func DecodeBitmapIndex(r *wire.Reader, n int) (*BitmapIndex, error) {
	minV, card, rows := r.I64(), r.Int(), r.Int()
	eqs := r.U64s()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("colstore: decoding bitmap index: %w", err)
	}
	if rows != n {
		return nil, fmt.Errorf("colstore: bitmap index covers %d rows, table has %d", rows, n)
	}
	nWords := (n + 63) / 64
	// The upper bound keeps a hostile cardinality from wrapping the product
	// below or sizing the buffers after it, and the domain from wrapping
	// past the largest int64; an index over no rows is never written.
	if card < 1 || card > len(eqs) || minV > math.MaxInt64-int64(card-1) {
		return nil, fmt.Errorf("colstore: bitmap index declares cardinality %d from %d", card, minV)
	}
	if len(eqs) != card*nWords {
		return nil, fmt.Errorf("colstore: bitmap index has %d words, %d values over %d rows need %d",
			len(eqs), card, n, card*nWords)
	}
	bi := emptyBitmapIndex(minV, minV+int64(card-1), n, card)
	if bi == nil {
		return nil, fmt.Errorf("colstore: bitmap index declares cardinality %d", card)
	}
	doms := make([][2]int64, bi.stripes())
	for s := range doms {
		lo, hi := card, 0
		for k := s * stripeWords; k < min(s*stripeWords+stripeWords, nWords); k++ {
			var seen, twice uint64
			for v := range card {
				e := eqs[v*nWords+k]
				twice |= seen & e
				seen |= e
				if e != 0 {
					lo, hi = min(lo, v), max(hi, v)
				}
			}
			rows := ^uint64(0)
			if k == nWords-1 && n&63 != 0 {
				rows = 1<<uint(n&63) - 1
			}
			if twice != 0 || seen != rows {
				return nil, fmt.Errorf("colstore: bitmap index does not hold each of %d rows under exactly one of %d values", n, card)
			}
		}
		doms[s] = [2]int64{minV + int64(lo), minV + int64(hi)}
	}
	bi.layRuns(func(s int) (int64, int64) { return doms[s][0], doms[s][1] })
	eq := make([]uint64, card)
	for _, run := range bi.runs {
		c, off := int(run.card), int(run.min-minV)
		if intervals(c) == 0 {
			continue
		}
		for w := range min(int(run.words), nWords-int(run.start)*stripeWords) {
			for v := range c {
				eq[v] = eqs[(off+v)*nWords+int(run.start)*stripeWords+w]
			}
			setWord(bi.bits[run.off+w:], int(run.words), eq[:c])
		}
	}
	return bi, nil
}
