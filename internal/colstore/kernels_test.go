package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// widthColumn builds a column of n values whose every block has delta width
// exactly w and minimum exactly minV: each block holds a delta of 0 and one
// of 2^w-1 (the extremes a shift or mask off by one would corrupt) and random
// deltas between. minV + 2^w-1 must not exceed MaxInt64, and a partial last
// block needs at least two values.
func widthColumn(rng *rand.Rand, w uint, n int, minV int64) ([]int64, *Column) {
	vals := make([]int64, n)
	for i := range vals {
		delta := rng.Uint64() & mask(w)
		switch i % BlockSize {
		case 0:
			delta = 0
		case 1:
			delta = mask(w)
		}
		vals[i] = int64(uint64(minV) + delta)
	}
	return vals, newColumn(vals)
}

// blockMins are the block minima the width properties run at: the bottom of
// the domain, the highest minimum a w-bit block can have, one that puts zero
// inside the block, and one that keeps the whole block negative.
func blockMins(w uint) []int64 {
	return []int64{math.MinInt64, int64(uint64(math.MaxInt64) - mask(w)), int64(-(mask(w) >> 1) - 1),
		-int64(min(mask(w), math.MaxInt64)) - 1}
}

// blockShapes are the column lengths the width properties run at: the block
// under test is the column's last, so it is either a partial block, or a
// full one whose packed words end exactly where the column's do — a kernel
// reading one word too many would run off the slice.
var blockShapes = []int{3*BlockSize + 37, 2 * BlockSize, BlockSize + 2, BlockSize + 65}

// TestDecodeBlockEveryWidth checks DecodeBlock against the values the column
// was built from, and against Get's independent one-delta probe, for every
// width 0..64 at the extreme block minima.
func TestDecodeBlockEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var buf [BlockSize]int64
	for w := uint(0); w <= 64; w++ {
		for _, minV := range blockMins(w) {
			for _, n := range blockShapes {
				vals, c := widthColumn(rng, w, n, minV)
				for b := 0; b < c.NumBlocks(); b++ {
					if got := uint(c.widths[b]); got != w {
						t.Fatalf("w=%d: block %d built with width %d", w, b, got)
					}
					cnt := c.DecodeBlock(b, buf[:])
					if want := min(BlockSize, n-b*BlockSize); cnt != want {
						t.Fatalf("w=%d n=%d block %d: count %d, want %d", w, n, b, cnt, want)
					}
					for i, v := range buf[:cnt] {
						row := b*BlockSize + i
						if v != vals[row] || v != c.Get(row) {
							t.Fatalf("w=%d min=%d n=%d row %d: DecodeBlock %d, Get %d, want %d",
								w, minV, n, row, v, c.Get(row), vals[row])
						}
					}
				}
			}
		}
	}
}

// compareRanges returns the predicates the compare properties run against a
// block holding vals: unbounded on either or both sides (query.NegInf and
// PosInf are these extremes), the whole domain of the block, single points
// (present, and just outside), ranges that start below the block or end above
// it or both, ranges wholly to one side, and random ranges.
func compareRanges(rng *rand.Rand, vals []int64) [][2]int64 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	pick := func() int64 { return vals[rng.Intn(len(vals))] }
	// below and above step outside the block, stopping at the domain's ends.
	below := func() int64 { return lo - int64(min(uint64(1+rng.Intn(1000)), uint64(lo)^(1<<63))) }
	above := func() int64 { return hi + int64(min(uint64(1+rng.Intn(1000)), math.MaxInt64-uint64(hi))) }
	ordered := func(a, b int64) [2]int64 { return [2]int64{min(a, b), max(a, b)} }
	p := pick()
	rs := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, pick()},
		{pick(), math.MaxInt64},
		{lo, hi},
		{lo, lo}, {hi, hi},
		{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
		{below(), pick()}, {pick(), above()}, {below(), above()},
		ordered(below(), below()), ordered(above(), above()),
		{p, p},
	}
	for i := 0; i < 6; i++ {
		rs = append(rs, ordered(pick(), pick()))
	}
	return rs
}

// randomSel draws a selection word: empty, full, a handful of survivors (most
// of a kernel's 8-row groups skipped; the decoded fallback's per-bit path),
// one 8-row group alone, about one in eight, or most.
func randomSel(rng *rand.Rand) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64))
	case 3:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	case 4:
		return (rng.Uint64() & 0xff) << uint(8*rng.Intn(8))
	}
	return rng.Uint64() | rng.Uint64()
}

// compareImpl is one packed compare compiled into this build (packedImpls:
// the vector routine and the generated kernels, or nothing under
// floodscalar), with compareBlock's contract: refine sel and report true, or
// report false and leave sel alone.
type compareImpl struct {
	name string
	fn   func(words []uint64, sel *BlockBitmap, w uint, off, span uint64) bool
}

// checkCompareBlock checks block b under sel and the predicate [lo, hi]
// against the definition v >= lo && v <= hi.
func checkCompareBlock(t *testing.T, c *Column, vals []int64, b int, sel BlockBitmap, lo, hi int64) {
	t.Helper()
	checkCompare(t, c, vals, b, sel, uint64(lo), uint64(hi)-uint64(lo), func(v int64) bool { return v >= lo && v <= hi })
}

// checkCompare runs every compare there is on block b under sel and the
// predicate (rmin, span) — CompareBlock, DecodeBlock + andCompareMask, and on
// a full block each of packedImpls that accepts it — and checks each against
// want, row by row over the values the column was built from.
func checkCompare(t *testing.T, c *Column, vals []int64, b int, sel BlockBitmap, rmin, span uint64, want func(v int64) bool) {
	t.Helper()
	var buf [BlockSize]int64
	cnt := c.DecodeBlock(b, buf[:])
	check := func(name string, got BlockBitmap) {
		t.Helper()
		for i := 0; i < cnt; i++ {
			v := vals[b*BlockSize+i]
			bit := uint64(1) << uint(i%64)
			if w := sel[i/64]&bit != 0 && want(v); (got[i/64]&bit != 0) != w {
				t.Fatalf("w=%d block %d row %d (v=%d), rmin %d span %#x under sel %#x: %s %v, want %v",
					c.widths[b], b, i, v, int64(rmin), span, sel, name, !w, w)
			}
		}
		for wi := range got {
			if got[wi]&^sel[wi] != 0 {
				t.Fatalf("w=%d block %d: %s set bits outside sel: %#x from %#x", c.widths[b], b, name, got[wi], sel[wi])
			}
		}
	}
	got := sel
	c.CompareBlock(b, &got, rmin, span)
	check("CompareBlock", got)
	got = sel
	andCompareMask(&got, &buf, rmin, span)
	check("decode+mask", got)
	if cnt < BlockSize {
		return
	}
	for _, impl := range packedImpls {
		got = sel
		if impl.fn(c.words[c.offsets[b]:], &got, uint(c.widths[b]), uint64(c.mins[b])-rmin, span) {
			check(impl.name, got)
		} else if got != sel {
			t.Fatalf("w=%d block %d: %s refused the block but changed sel", c.widths[b], b, impl.name)
		}
	}
}

// wrappedPredicates are raw (rmin, span) pairs no Min <= Max range produces:
// the passing values start inside the block, run off the top of the domain
// and come back round to the block's first values. The bounds rewrite refuses
// them (two runs of deltas, not one interval) and every other compare must
// still answer uint64(v)-rmin <= span.
func wrappedPredicates(rng *rand.Rand, blk []int64) [][2]uint64 {
	var ps [][2]uint64
	for i := 0; i < 3; i++ {
		rmin := uint64(blk[rng.Intn(len(blk))])
		ps = append(ps, [2]uint64{rmin, ^uint64(0) - uint64(1+rng.Intn(3))}, [2]uint64{rmin, uint64(blk[0]) - rmin})
	}
	return ps
}

// TestCompareBlockEveryWidth is the packed-compare property: for every width
// 0..64, block minimum and block shape, every compare compiled in agrees with
// the row by row definition under random partial selections.
func TestCompareBlockEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for w := uint(0); w <= 64; w++ {
		for _, minV := range blockMins(w) {
			for _, n := range blockShapes {
				vals, c := widthColumn(rng, w, n, minV)
				for b := 0; b < c.NumBlocks(); b++ {
					blk := vals[b*BlockSize : min(n, (b+1)*BlockSize)]
					for _, r := range compareRanges(rng, blk) {
						sel := BlockBitmap{randomSel(rng), randomSel(rng)}
						checkCompareBlock(t, c, vals, b, sel, r[0], r[1])
					}
					for _, p := range wrappedPredicates(rng, blk) {
						rmin, span := p[0], p[1]
						sel := BlockBitmap{randomSel(rng), randomSel(rng)}
						checkCompare(t, c, vals, b, sel, rmin, span, func(v int64) bool { return uint64(v)-rmin <= span })
					}
				}
			}
		}
	}
}

// TestAndCompareMaskEdges pins the branchless compare mask on its wrap-prone
// inputs: unbounded ranges (span wraps to ^0), single-value spans, and
// extreme int64 values.
func TestAndCompareMaskEdges(t *testing.T) {
	var vals [BlockSize]int64
	for i := range vals {
		vals[i] = int64(i - 64)
	}
	vals[0], vals[1] = math.MinInt64, math.MaxInt64
	check := func(lo, hi int64) {
		sel := BlockBitmap{^uint64(0), ^uint64(0)}
		andCompareMask(&sel, &vals, uint64(lo), uint64(hi)-uint64(lo))
		for i, v := range vals {
			want := v >= lo && v <= hi
			got := sel[i/64]&(1<<uint(i%64)) != 0
			if got != want {
				t.Fatalf("[%d,%d] row %d (v=%d): got %v want %v", lo, hi, i, v, got, want)
			}
		}
	}
	check(math.MinInt64, math.MaxInt64)
	check(0, 0)
	check(math.MinInt64, math.MinInt64)
	check(math.MaxInt64, math.MaxInt64)
	check(-10, 10)
	check(math.MinInt64, 0)
	check(0, math.MaxInt64)
}

// FuzzCompareBlock drives every compare compiled in with fuzzer-chosen width,
// block minimum, column length, predicate and selection, against the row by
// row definition; lo > hi is taken as the raw wrapping predicate rmin = lo,
// span = hi-lo. The committed corpus (testdata/fuzz/FuzzCompareBlock) holds
// one input per code path: a packed kernel under a full and under a sparse
// selection, a cross-word width, the widest vector width and the first past
// it, the widest generated kernel, the decode fallback for a wide width and
// for a partial block, an unbounded predicate, a negative block under a
// thinned selection, ranges that start below and end above the block, a wrap
// the bounds rewrite refuses, and the two hand-written widths 0 and 64.
func FuzzCompareBlock(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(BlockSize), int64(100), int64(3), int64(20), ^uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, minV, lo, hi int64, sel0, sel1 uint64) {
		w := uint(width % 65)
		if minV > int64(uint64(math.MaxInt64)-mask(w)) {
			minV = int64(uint64(math.MaxInt64) - mask(w))
		}
		vals, c := widthColumn(rand.New(rand.NewSource(seed)), w, 2+int(n)%(3*BlockSize), minV)
		for b := 0; b < c.NumBlocks(); b++ {
			if lo <= hi {
				checkCompareBlock(t, c, vals, b, BlockBitmap{sel0, sel1}, lo, hi)
				continue
			}
			rmin, span := uint64(lo), uint64(hi)-uint64(lo)
			checkCompare(t, c, vals, b, BlockBitmap{sel0, sel1}, rmin, span, func(v int64) bool { return uint64(v)-rmin <= span })
		}
	})
}

// benchWidths are the five commonest delta widths in the repository
// benchmark's tables (docs/ARCHITECTURE.md has the histogram).
var benchWidths = []uint{3, 5, 12, 20, 22}

func benchColumn(w uint) *Column {
	_, c := widthColumn(rand.New(rand.NewSource(1)), w, 1<<17, 1000)
	return c
}

// BenchmarkDecodeBlock measures one full-block decode per width; divide by
// 128 for ns per value.
func BenchmarkDecodeBlock(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			c := benchColumn(w)
			var buf [BlockSize]int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.DecodeBlock(i&(c.NumBlocks()-1), buf[:])
			}
		})
	}
}

// BenchmarkCompareBlock measures one full-block range compare under a full
// selection — the kernel's first filtered dimension — with a predicate that
// keeps about half the rows.
func BenchmarkCompareBlock(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			c := benchColumn(w)
			rmin, span := uint64(1000+mask(w)/4), mask(w)/2
			var kept uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel := BlockBitmap{^uint64(0), ^uint64(0)}
				c.CompareBlock(i&(c.NumBlocks()-1), &sel, rmin, span)
				kept += sel[0] ^ sel[1]
			}
			benchSink = kept
		})
	}
}

var benchSink uint64

// TestPackBlockEveryWidthAndLength packs blocks of every width 1..64 and
// every length 1..128, at the extreme block minima, through packBlock — the
// generated kernels for a full block of up to 32-bit deltas in the default
// and purego builds — and through the bit loop alone, into words that start
// out as garbage: both must write identical words, every word the deltas
// cover written whole, and nothing past them.
func TestPackBlockEveryWidthAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const garbage = 0xdeadbeefcafef00d
	var got, want [BlockSize + 1]uint64
	for w := uint(1); w <= 64; w++ {
		for _, minV := range blockMins(w) {
			vals, _ := widthColumn(rng, w, BlockSize, minV)
			for n := 1; n <= BlockSize; n++ {
				for i := range got {
					got[i], want[i] = garbage, ^uint64(garbage)
				}
				packBlock(vals[:n], got[:], minV, w)
				packGeneric(vals[:n], want[:], minV, w)
				nw := blockWords(n, w)
				if !slices.Equal(got[:nw], want[:nw]) {
					t.Fatalf("w=%d min=%d n=%d: the kernel path and the bit loop write different words", w, minV, n)
				}
				if slices.ContainsFunc(got[nw:], func(x uint64) bool { return x != garbage }) {
					t.Fatalf("w=%d min=%d n=%d: packBlock wrote past its %d words", w, minV, n, nw)
				}
			}
		}
	}
}

// FuzzColumnEncode encodes arbitrary values as a column and requires the
// round trip, the packed words of the bit loop block by block, and from
// TableWriter.SetColumn — handed the values, or a permutation of fuzzed order
// to gather them by — the column newColumn writes, the prefix sums of their
// definition and the bitmap index newBitmapIndex makes from that column.
func FuzzColumnEncode(f *testing.F) {
	enc := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8), uint8(0), int64(7))
	f.Add(enc(math.MinInt64, math.MaxInt64, 0, -1), uint8(3), int64(1))
	f.Add(enc(5, 5, 5, 5), uint8(2), int64(300))
	f.Add(bytes.Repeat(enc(1<<20, 3, 1<<31-1, 9), 80), uint8(5), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8, seed int64) {
		vals := make([]int64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		if shape&1 != 0 { // shrink the deltas so the kernel widths come up
			for i := range vals {
				vals[i] >>= 8 * (shape >> 1 & 7)
			}
		}
		c := newColumn(vals)
		if got := c.Decode(); !slices.Equal(got, vals) {
			t.Fatalf("round trip: %v, want %v", got, vals)
		}
		want := make([]uint64, len(c.words))
		for b := range c.NumBlocks() {
			if w := uint(c.widths[b]); w > 0 {
				packGeneric(vals[b*BlockSize:min((b+1)*BlockSize, len(vals))], want[c.offsets[b]:], c.mins[b], w)
			}
		}
		if !slices.Equal(c.words, want) {
			t.Fatalf("packed words differ from the bit loop's")
		}
		perm := rand.New(rand.NewSource(seed)).Perm(len(vals))
		rows, gathered := make([]int32, len(vals)), make([]int64, len(vals))
		for r, p := range perm {
			rows[r], gathered[r] = int32(p), vals[p]
		}
		ref := newColumn(gathered)
		refPre := make([]int64, len(vals)+1)
		for r, v := range gathered {
			refPre[r+1] = refPre[r] + v
		}
		refBitmap := newBitmapIndex(ref, 64)
		for name, p := range map[string][]int32{"values": nil, "permutation": rows} {
			tw, src := NewTableWriter([]string{"v"}, len(vals), 64), gathered
			if p != nil {
				src = vals
			}
			tw.SetColumn(0, src, p, true)
			if got := tw.Table(); !reflect.DeepEqual(got.cols[0], ref) ||
				!slices.Equal(got.prefixes[0], refPre) || !reflect.DeepEqual(got.Bitmap(0), refBitmap) {
				t.Fatalf("SetColumn handed the %s writes another column, prefix sums or bitmap index than newColumn and newBitmapIndex", name)
			}
		}
	})
}

// BenchmarkNewColumn encodes 131,072 values whose every block has delta
// width w; divide by 131,072 for ns per value.
func BenchmarkNewColumn(b *testing.B) {
	for _, w := range []uint{5, 13, 23, 40} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			vals, _ := widthColumn(rand.New(rand.NewSource(1)), w, 1<<17, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				newColumn(vals)
			}
		})
	}
}
