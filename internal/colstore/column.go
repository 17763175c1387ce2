// Package colstore implements the in-memory column store substrate used by
// Flood and every baseline index in this repository.
//
// Following §7.1 of the paper, each column stores 64-bit integers using
// block-delta compression: values are divided into consecutive blocks of 128
// entries and each value is encoded as the bit-packed delta to the minimum
// value in its block. The encoding supports constant-time random access and
// fast block-at-a-time decoding for scans. Every block additionally carries
// its min/max (a zone map) so scans can skip or exact-accept whole blocks
// without decoding them. Columns may optionally carry a cumulative-aggregate
// companion (prefix sums) that lets exact sub-range aggregations complete in
// O(1) without touching the underlying data.
package colstore

import (
	"fmt"
	"math/bits"
	"slices"
)

// BlockSize is the number of values per compression block (§7.1).
const BlockSize = 128

// Column is an immutable, block-delta-compressed vector of int64 values.
type Column struct {
	n       int
	mins    []int64  // per-block minimum value (also the zone-map lower bound)
	maxs    []int64  // per-block maximum value (zone-map upper bound)
	widths  []uint8  // per-block delta bit width (0..64)
	offsets []uint32 // per-block starting word index into words
	words   []uint64 // packed deltas
}

// newColumn compresses values into a Column. The input slice is not retained.
func newColumn(values []int64) *Column {
	c := emptyColumn(len(values))
	c.appendBlocks(values)
	return c
}

// emptyColumn returns a column of no values with room for the block headers
// of n.
func emptyColumn(n int) *Column {
	nBlocks := (n + BlockSize - 1) / BlockSize
	return &Column{
		mins:    make([]int64, 0, nBlocks),
		maxs:    make([]int64, 0, nBlocks),
		widths:  make([]uint8, 0, nBlocks),
		offsets: make([]uint32, 0, nBlocks),
	}
}

// appendBlocks encodes values as further blocks of c, which must end on a
// block boundary: the zone map, width and word offset of each new block, then
// its packed deltas. c's slices grow by append, so a header copied from c
// before the call still reads exactly its own blocks; the storage past their
// lengths belongs to whichever copy appends next.
func (c *Column) appendBlocks(values []int64) {
	first, words := len(c.mins), len(c.words)
	for lo := 0; lo < len(values); lo += BlockSize {
		blk := values[lo:min(lo+BlockSize, len(values))]
		minV, maxV := blk[0], blk[0]
		for _, v := range blk[1:] {
			minV, maxV = min(minV, v), max(maxV, v)
		}
		words += blockWords(len(blk), c.appendHeader(minV, maxV, words))
	}
	c.words = slices.Grow(c.words, words-len(c.words))[:words]
	for b := first; b < len(c.mins); b++ {
		lo := (b - first) * BlockSize
		packBlock(values[lo:min(lo+BlockSize, len(values))], c.words[c.offsets[b]:], c.mins[b], uint(c.widths[b]))
	}
	c.n += len(values)
}

// appendHeader appends a block header to c — its zone map [minV, maxV], its
// delta width and at, the index of its first packed word — and returns the
// width.
func (c *Column) appendHeader(minV, maxV int64, at int) uint {
	w := bits.Len64(uint64(maxV) - uint64(minV))
	c.mins = append(c.mins, minV)
	c.maxs = append(c.maxs, maxV)
	c.widths = append(c.widths, uint8(w))
	c.offsets = append(c.offsets, uint32(at))
	return uint(w)
}

// blockWords is the number of packed words n deltas of w bits take.
func blockWords(n int, w uint) int { return (n*int(w) + 63) / 64 }

// packBlock writes the w-bit deltas of blk from minV (w = 0 writes nothing)
// to the front of words. A full block of 1..32-bit deltas packs through the
// straight-line code generated for its width, 64 deltas into w words at a
// time; a partial block and wider deltas take the bit loop.
func packBlock(blk []int64, words []uint64, minV int64, w uint) {
	switch {
	case w == 0:
	case len(blk) == BlockSize:
		packWord(blk, words, minV, w)
		packWord(blk[64:], words[w:], minV, w)
	default:
		packGeneric(blk, words, minV, w)
	}
}

// packGeneric is the bit loop that packs the w-bit deltas (0 < w <= 64) of
// any number of values. Deltas accumulate in a register and reach memory a
// whole word at a time; a delta that straddles a word boundary leaves its
// high bits in the next accumulator. Every word it covers is written whole.
func packGeneric(values []int64, words []uint64, minV int64, w uint) {
	var acc uint64
	used, wi := uint(0), 0
	for _, v := range values {
		delta := uint64(v) - uint64(minV)
		acc |= delta << used
		if used += w; used >= 64 {
			words[wi] = acc
			wi++
			used -= 64
			acc = 0
			if used > 0 {
				acc = delta >> (w - used)
			}
		}
	}
	if used > 0 {
		words[wi] = acc
	}
}

// Len returns the number of values in the column.
func (c *Column) Len() int { return c.n }

// NumBlocks returns the number of compression blocks.
func (c *Column) NumBlocks() int { return len(c.mins) }

// BlockBounds returns the zone map of block b: the minimum and maximum value
// stored in it. Scans use it to skip blocks disjoint from a predicate and to
// exact-accept blocks fully contained in one, without decoding either way.
func (c *Column) BlockBounds(b int) (min, max int64) { return c.mins[b], c.maxs[b] }

// Get returns the value at row i in constant time.
func (c *Column) Get(i int) int64 {
	b := i / BlockSize
	w := uint(c.widths[b])
	if w == 0 {
		return c.mins[b]
	}
	delta := unpack(c.words, uint(c.offsets[b])*64+uint(i%BlockSize)*w, w)
	return c.mins[b] + int64(delta)
}

// unpack extracts the w-bit delta (0 < w <= 64) that starts at bit pos of
// the packed words.
func unpack(words []uint64, pos, w uint) uint64 {
	wi, off := pos>>6, pos&63
	delta := words[wi] >> off
	if off+w > 64 {
		delta |= words[wi+1] << (64 - off)
	}
	return delta & mask(w)
}

// DecodeBlock decodes block b into out and returns the number of valid
// values (BlockSize for all but possibly the last block). out must have
// room for BlockSize values. A full block of 1..32-bit deltas — every block
// but a handful in practice — decodes through straight-line code generated
// for its width; the column's last partial block and wider deltas take the
// generic bit loop.
func (c *Column) DecodeBlock(b int, out []int64) int {
	lo := b * BlockSize
	cnt := c.n - lo
	if cnt > BlockSize {
		cnt = BlockSize
	}
	minV := c.mins[b]
	w := uint(c.widths[b])
	words := c.words[c.offsets[b]:]
	out = out[:cnt]
	switch {
	case w == 0:
		for i := range out {
			out[i] = minV
		}
	case w == 64:
		for i := range out {
			out[i] = minV + int64(words[i])
		}
	case cnt == BlockSize:
		unpackWord(words, out, minV, w)
		unpackWord(words[w:], out[64:], minV, w)
	default:
		unpackGeneric(words, out, minV, w)
	}
	return cnt
}

// unpackGeneric decodes the len(out) w-bit deltas (0 < w <= 64) packed from
// bit 0 of words into out, adding minV: the bit loop that serves every width
// and count.
func unpackGeneric(words []uint64, out []int64, minV int64, w uint) {
	m := mask(w)
	pos := uint(0)
	for i := range out {
		wi := pos >> 6
		off := pos & 63
		delta := words[wi] >> off
		if off+w > 64 {
			delta |= words[wi+1] << (64 - off)
		}
		out[i] = minV + int64(delta&m)
		pos += w
	}
}

// Decode materializes the whole column into a fresh slice.
func (c *Column) Decode() []int64 { return c.DecodeInto(nil) }

// DecodeInto is Decode into dst's storage, which is reallocated only when it
// holds fewer than Len values: a caller walking several columns of one table
// pays for one buffer, not one per column.
func (c *Column) DecodeInto(dst []int64) []int64 {
	if cap(dst) < c.n {
		dst = make([]int64, c.n)
	}
	dst = dst[:c.n]
	for b := range c.mins {
		c.DecodeBlock(b, dst[b*BlockSize:])
	}
	return dst
}

// LowerBound returns the smallest index i in [start, end) with Get(i) >= v,
// or end if no such index exists. The rows [start, end) must be sorted
// ascending. The zone map is the index: the minimum of a block that lies
// wholly inside the run is the value of its first row, so a binary search
// over those minima brackets the answer to one block (or to the run's
// partial edge blocks), and probes of that block's packed deltas finish it.
func (c *Column) LowerBound(start, end int, v int64) int {
	first, last := wholeBlocks(start, end)
	return c.finishLowerBound(start, end, c.searchMins(first, last, v), last, v)
}

// LowerBoundFrom is LowerBound for an answer expected near start: it gallops
// over the block minima — the first whole block of the run, then 1, 3, 7, …
// blocks past it — and binary-searches only the last stride. Searching a
// range's upper bound from its lower bound so costs O(log) of the blocks
// between them, not of the run.
func (c *Column) LowerBoundFrom(start, end int, v int64) int {
	first, last := wholeBlocks(start, end)
	lo, hi := first, first
	for step := 1; hi < last && c.mins[hi] < v; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	return c.finishLowerBound(start, end, c.searchMins(lo, min(hi, last), v), last, v)
}

// wholeBlocks returns the blocks [first, last) that lie wholly inside the
// rows [start, end); first > last when both ends fall inside one block.
func wholeBlocks(start, end int) (first, last int) {
	return (start + BlockSize - 1) / BlockSize, end / BlockSize
}

// searchMins returns the first block in [lo, hi) whose minimum is at least
// v, or hi if none is.
func (c *Column) searchMins(lo, hi int, v int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.mins[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// finishLowerBound completes a LowerBound over the rows [start, end) whose
// whole blocks end at last, given b, the first whole block whose minimum is
// at least v (last if none). The answer is at most b's first row and past
// the first row of block b-1 (whose minimum is below v), so it lies in block
// b-1, in the run's partial head block when b is its first whole block, or —
// when b is last — in block b-1 and the partial tail block after it.
func (c *Column) finishLowerBound(start, end, b, last int, v int64) int {
	lo, hi := max(start, (b-1)*BlockSize), end
	if b < last {
		hi = b * BlockSize
	}
	// [lo, hi) spans at most two blocks.
	if split := (lo/BlockSize + 1) * BlockSize; split < hi {
		if i := c.blockLowerBound(lo, split, v); i < split {
			return i
		}
		lo = split
	}
	return c.blockLowerBound(lo, hi, v)
}

// blockLowerBound is LowerBound over rows [lo, hi) of one block, by direct
// probes of its packed deltas: the block's min, width and offset are read
// once and each of the at most seven steps extracts one delta — several
// times cheaper than unpacking all 128 values to look at seven.
func (c *Column) blockLowerBound(lo, hi int, v int64) int {
	if lo >= hi {
		return lo
	}
	b := lo / BlockSize
	minV := c.mins[b]
	if v <= minV {
		return lo // every value in the block is >= its minimum
	}
	w := uint(c.widths[b])
	if w == 0 {
		return hi // a constant block below v
	}
	// Compare in the delta domain: value < v iff delta < v-minV, and v-minV
	// is positive here, so the wrapping subtraction is its exact uint64.
	target := uint64(v) - uint64(minV)
	base := uint(c.offsets[b]) * 64
	i, j := uint(lo%BlockSize), uint(hi-b*BlockSize)
	for i < j {
		mid := (i + j) >> 1
		if unpack(c.words, base+mid*w, w) < target {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return b*BlockSize + int(i)
}

// SizeBytes reports the in-memory footprint of the compressed column.
func (c *Column) SizeBytes() int64 {
	return int64(len(c.mins)*8 + len(c.maxs)*8 + len(c.widths) + len(c.offsets)*4 + len(c.words)*8)
}

// computeMaxs rebuilds the per-block maxima from the packed data. Decoded
// (persisted) columns call this because the wire format predates zone maps
// and carries only per-block minima. It refuses a block whose smallest
// decoded value is not its stored minimum — a delta that wraps past the top
// of int64 decodes below it — since every zone map and every domain taken
// from them (bitmap indexes, a build's value table) must bound the values.
func (c *Column) computeMaxs() error {
	c.maxs = make([]int64, len(c.mins))
	var buf [BlockSize]int64
	for b := range c.mins {
		cnt := c.DecodeBlock(b, buf[:])
		minV, maxV := buf[0], buf[0]
		for _, v := range buf[1:cnt] {
			minV, maxV = min(minV, v), max(maxV, v)
		}
		if minV != c.mins[b] {
			return fmt.Errorf("block %d decodes to a smallest value of %d, not its minimum %d", b, minV, c.mins[b])
		}
		c.maxs[b] = maxV
	}
	return nil
}

func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}
