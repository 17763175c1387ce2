package colstore

import "math/bits"

// CompareBlock refines sel, the selection bitmap of block b, with the range
// predicate v ∈ [rmin, rmin+span] (both as uint64 bit patterns, so span is
// the wrapping Max-Min and unbounded ranges need no special case): bits of
// rows whose value falls outside are cleared, bits already clear stay clear.
// Bits past the column's last row are the caller's to keep clear.
// A full block of 1..32-bit deltas is compared in its packed form — the test
// v-rmin <= span becomes delta+(blockMin-rmin) <= span, so no value is ever
// reconstructed or stored — by the vector routine or the generated kernels,
// whichever KernelName reports; the column's last partial block and wider
// deltas decode first.
func (c *Column) CompareBlock(b int, sel *BlockBitmap, rmin, span uint64) {
	if (b+1)*BlockSize <= c.n &&
		compareBlock(c.words[c.offsets[b]:], sel, uint(c.widths[b]), uint64(c.mins[b])-rmin, span) {
		return
	}
	var buf [BlockSize]int64
	c.DecodeBlock(b, buf[:])
	andCompareMask(sel, &buf, rmin, span)
}

// sparseRefineBits is the survivor count per selection word at or below which
// a compare visits the set bits one by one instead of evaluating all 64
// lanes: one TrailingZeros plus one probe per survivor against a fixed cost
// for the whole word.
const sparseRefineBits = 32

// andCompareMask evaluates v ∈ [rmin, rmin+span] over one decoded block and
// ANDs the result into sel, 64 rows per mask word. The per-row test compiles
// branchlessly: the carry out of span - (v - rmin) (bits.Sub64 is an
// intrinsic) is 1 exactly when the value falls outside the range, so each
// word of the mask is built with subtract/xor/shift only — no data-dependent
// branches for the predictor to miss. Words already empty are skipped
// without touching their 64 rows, and words already thinned below
// sparseRefineBits survivors are refined per set bit instead of per lane.
func andCompareMask(sel *BlockBitmap, buf *[BlockSize]int64, rmin, span uint64) {
	for wi := range sel {
		w := sel[wi]
		if w == 0 {
			continue
		}
		vals := buf[wi*64 : wi*64+64]
		if bits.OnesCount64(w) <= sparseRefineBits {
			m := w
			for t := w; t != 0; t &= t - 1 {
				k := uint(bits.TrailingZeros64(t)) & 63
				_, borrow := bits.Sub64(span, uint64(vals[k])-rmin, 0)
				m &^= borrow << k
			}
			sel[wi] = m
			continue
		}
		// Full-lane pass, 8 lanes per step with compile-time shift counts:
		// the eight compares are independent chains the CPU overlaps, and
		// only the merge into m needs a variable shift.
		var m uint64
		for base := 0; base < 64; base += 8 {
			v := vals[base : base+8 : base+8]
			_, b0 := bits.Sub64(span, uint64(v[0])-rmin, 0)
			_, b1 := bits.Sub64(span, uint64(v[1])-rmin, 0)
			_, b2 := bits.Sub64(span, uint64(v[2])-rmin, 0)
			_, b3 := bits.Sub64(span, uint64(v[3])-rmin, 0)
			_, b4 := bits.Sub64(span, uint64(v[4])-rmin, 0)
			_, b5 := bits.Sub64(span, uint64(v[5])-rmin, 0)
			_, b6 := bits.Sub64(span, uint64(v[6])-rmin, 0)
			_, b7 := bits.Sub64(span, uint64(v[7])-rmin, 0)
			mb := (b0 ^ 1) | (b1^1)<<1 | (b2^1)<<2 | (b3^1)<<3 |
				(b4^1)<<4 | (b5^1)<<5 | (b6^1)<<6 | (b7^1)<<7
			m |= mb << uint(base)
		}
		sel[wi] = w & m
	}
}
