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

// NewColumn compresses values into a Column. The input slice is not retained.
func NewColumn(values []int64) *Column {
	nBlocks := (len(values) + BlockSize - 1) / BlockSize
	c := &Column{
		mins:    make([]int64, 0, nBlocks),
		maxs:    make([]int64, 0, nBlocks),
		widths:  make([]uint8, 0, nBlocks),
		offsets: make([]uint32, 0, nBlocks),
	}
	c.appendBlocks(values)
	return c
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
		w := bits.Len64(uint64(maxV) - uint64(minV))
		c.mins = append(c.mins, minV)
		c.maxs = append(c.maxs, maxV)
		c.widths = append(c.widths, uint8(w))
		c.offsets = append(c.offsets, uint32(words))
		words += (len(blk)*w + 63) / 64
	}
	c.words = slices.Grow(c.words, words-len(c.words))[:words]
	for b := first; b < len(c.mins); b++ {
		w := uint(c.widths[b])
		if w == 0 {
			continue
		}
		// Deltas accumulate in a register and reach memory a whole word at
		// a time; a delta that straddles a word boundary leaves its high
		// bits in the next accumulator.
		lo := (b - first) * BlockSize
		words := c.words[c.offsets[b]:]
		minV := c.mins[b]
		var acc uint64
		used, wi := uint(0), 0
		for _, v := range values[lo:min(lo+BlockSize, len(values))] {
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
	c.n += len(values)
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
// ascending. The search runs at row granularity until the remaining window
// fits inside one compression block and then finishes with direct probes of
// that block's packed deltas: the block's min, width and offset are read
// once and each of the at most seven remaining steps extracts one delta —
// several times cheaper than unpacking all 128 values to look at seven.
func (c *Column) LowerBound(start, end int, v int64) int {
	lo, hi := start, end
	for lo < hi && lo/BlockSize != (hi-1)/BlockSize {
		mid := int(uint(lo+hi) >> 1)
		if c.Get(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
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

// LowerBoundHint is LowerBound seeded with a predicted position (e.g. from a
// learned model, or a neighbouring answer): an exponential search outward
// from hint brackets the answer between the last row probed below v and the
// first probed at or above it, then LowerBound finishes inside the bracket.
// hint is clamped into [start, end].
func (c *Column) LowerBoundHint(start, end, hint int, v int64) int {
	if hint < start {
		hint = start
	}
	if hint > end {
		hint = end
	}
	lo, hi := start, end
	if hint < end && c.Get(hint) < v {
		// The answer is above hint: gallop up.
		lo = hint + 1
		for step := 1; ; step <<= 1 {
			p := lo + step - 1
			if p >= end {
				break
			}
			if c.Get(p) >= v {
				hi = p
				break
			}
			lo = p + 1
		}
	} else {
		// Get(hint) >= v, or hint == end: the answer is at or below hint.
		hi = hint
		for step := 1; ; step <<= 1 {
			p := hi - step
			if p < start {
				break
			}
			if c.Get(p) < v {
				lo = p + 1
				break
			}
			hi = p
		}
	}
	return c.LowerBound(lo, hi, v)
}

// SizeBytes reports the in-memory footprint of the compressed column.
func (c *Column) SizeBytes() int64 {
	return int64(len(c.mins)*8 + len(c.maxs)*8 + len(c.widths) + len(c.offsets)*4 + len(c.words)*8)
}

// UncompressedSizeBytes reports the footprint the column would occupy as a
// plain []int64.
func (c *Column) UncompressedSizeBytes() int64 { return int64(c.n) * 8 }

// computeMaxs rebuilds the per-block maxima from the packed data. Decoded
// (persisted) columns call this because the wire format predates zone maps
// and carries only per-block minima.
func (c *Column) computeMaxs() {
	c.maxs = make([]int64, len(c.mins))
	var buf [BlockSize]int64
	for b := range c.mins {
		cnt := c.DecodeBlock(b, buf[:])
		maxV := buf[0]
		for _, v := range buf[1:cnt] {
			if v > maxV {
				maxV = v
			}
		}
		c.maxs[b] = maxV
	}
}

func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}
