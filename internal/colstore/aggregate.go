package colstore

import "math/bits"

// Aggregates under a selection bitmap: the scan kernel hands an aggregator
// the survivors of a block as a BlockBitmap, and SUM, MIN and MAX fold them
// straight off the packed deltas — the block's minimum, width and offset are
// read once, and no value outside the mask is reconstructed one at a time
// through Get.

// Count returns the number of set bits: the rows of the block that survive.
func (s *BlockBitmap) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// sparseAggregateBits is the survivor count per selection word at or below
// which an aggregate probes each set bit's delta in place instead of
// unpacking all 64 lanes and folding them under the mask: a TrailingZeros and
// a two-word extract per survivor against a fixed cost for the whole word. A
// word the column ends inside is probed too: its 64 lanes are not all there
// to unpack.
const sparseAggregateBits = 16

// SumBlock returns the sum, wrapping like int64 addition, of the values of
// block b at the set bits of sel. Bits past the column's last row must be
// clear.
func (c *Column) SumBlock(b int, sel *BlockBitmap) int64 {
	sum := uint64(c.mins[b]) * uint64(sel.Count())
	w := uint(c.widths[b])
	if w == 0 {
		return int64(sum)
	}
	words := c.words[c.offsets[b]:]
	avail := c.n - b*BlockSize
	for wi, s := range sel {
		switch {
		case s == 0:
		case bits.OnesCount64(s) <= sparseAggregateBits || (wi+1)*64 > avail:
			for ; s != 0; s &= s - 1 {
				sum += unpack(words, (uint(wi)*64+uint(bits.TrailingZeros64(s)))*w, w)
			}
		default:
			var d [64]int64
			unpackWord(words[uint(wi)*w:], d[:], 0, w)
			var s0, s1, s2, s3 uint64
			for k := 0; k < 64; k += 4 {
				s0 += uint64(d[k]) & -(s & 1)
				s1 += uint64(d[k+1]) & -(s >> 1 & 1)
				s2 += uint64(d[k+2]) & -(s >> 2 & 1)
				s3 += uint64(d[k+3]) & -(s >> 3 & 1)
				s >>= 4
			}
			sum += s0 + s1 + s2 + s3
		}
	}
	return int64(sum)
}

// MaxBlock returns the larger of acc and the largest value of block b at the
// set bits of sel, without touching the packed data when the block's zone
// map cannot beat acc. Bits past the column's last row must be clear.
func (c *Column) MaxBlock(b int, sel *BlockBitmap, acc int64) int64 {
	if c.maxs[b] <= acc || sel[0]|sel[1] == 0 {
		return acc
	}
	return max(acc, c.mins[b]+int64(c.maxDelta(b, sel, 0)))
}

// MinBlock is MaxBlock for the smallest value.
func (c *Column) MinBlock(b int, sel *BlockBitmap, acc int64) int64 {
	if c.mins[b] >= acc || sel[0]|sel[1] == 0 {
		return acc
	}
	return min(acc, c.mins[b]+int64(c.maxDelta(b, sel, mask(uint(c.widths[b])))))
}

// maxDelta returns d^flip for the delta d of block b, among the set bits of
// sel (at least one), that maximises d^flip: the largest delta when flip is
// zero and, because complementing w bits reverses their order, the smallest
// when flip is mask(w). Lanes outside the mask fold in as zero, which no
// selected lane is below.
func (c *Column) maxDelta(b int, sel *BlockBitmap, flip uint64) uint64 {
	w := uint(c.widths[b])
	if w == 0 {
		return 0
	}
	words := c.words[c.offsets[b]:]
	avail := c.n - b*BlockSize
	var m uint64
	for wi, s := range sel {
		switch {
		case s == 0:
		case bits.OnesCount64(s) <= sparseAggregateBits || (wi+1)*64 > avail:
			for ; s != 0; s &= s - 1 {
				m = max(m, unpack(words, (uint(wi)*64+uint(bits.TrailingZeros64(s)))*w, w)^flip)
			}
		default:
			var d [64]int64
			unpackWord(words[uint(wi)*w:], d[:], 0, w)
			var m1, m2, m3 uint64
			for k := 0; k < 64; k += 4 {
				m = max(m, (uint64(d[k])^flip)&-(s&1))
				m1 = max(m1, (uint64(d[k+1])^flip)&-(s>>1&1))
				m2 = max(m2, (uint64(d[k+2])^flip)&-(s>>2&1))
				m3 = max(m3, (uint64(d[k+3])^flip)&-(s>>3&1))
				s >>= 4
			}
			m = max(m, m1, m2, m3)
		}
	}
	return m ^ flip
}
