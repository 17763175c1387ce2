package colstore

import (
	"fmt"
	"math"
	"math/rand"
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
	return vals, NewColumn(vals)
}

// blockMins are the block minima the width properties run at: the bottom of
// the domain, the highest minimum a w-bit block can have, and one that puts
// zero inside the block.
func blockMins(w uint) []int64 {
	return []int64{math.MinInt64, int64(uint64(math.MaxInt64) - mask(w)), int64(-(mask(w) >> 1) - 1)}
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
// block holding vals: unbounded on either or both sides, the whole domain of
// the block, single points (present, and just outside), and random ranges.
func compareRanges(rng *rand.Rand, vals []int64) [][2]int64 {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	pick := func() int64 { return vals[rng.Intn(len(vals))] }
	rs := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, pick()},
		{pick(), math.MaxInt64},
		{lo, hi},
		{lo, lo}, {hi, hi},
		{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
	}
	p := pick()
	rs = append(rs, [2]int64{p, p})
	for i := 0; i < 6; i++ {
		a, b := pick(), pick()
		rs = append(rs, [2]int64{min(a, b), max(a, b)})
	}
	return rs
}

// randomSel draws a selection word: empty, full, a handful of survivors (most
// of a kernel's 8-row groups skipped; the decoded fallback's per-bit path),
// about one in eight, or most.
func randomSel(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return ^uint64(0)
	case 2:
		return 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64))
	case 3:
		return rng.Uint64() & rng.Uint64() & rng.Uint64()
	}
	return rng.Uint64() | rng.Uint64()
}

// checkCompareBlock runs CompareBlock on block b under sel and the predicate
// [lo, hi] and checks it against the definition, row by row over the values
// the column was built from, and against DecodeBlock + andCompareMask.
func checkCompareBlock(t *testing.T, c *Column, vals []int64, b int, sel BlockBitmap, lo, hi int64) {
	t.Helper()
	got, viaDecode := sel, sel
	c.CompareBlock(b, &got, uint64(lo), uint64(hi)-uint64(lo))
	var buf [BlockSize]int64
	cnt := c.DecodeBlock(b, buf[:])
	andCompareMask(&viaDecode, &buf, uint64(lo), uint64(hi)-uint64(lo))
	for i := 0; i < cnt; i++ {
		v := vals[b*BlockSize+i]
		bit := uint64(1) << uint(i%64)
		want := sel[i/64]&bit != 0 && v >= lo && v <= hi
		if (got[i/64]&bit != 0) != want || (viaDecode[i/64]&bit != 0) != want {
			t.Fatalf("w=%d block %d row %d (v=%d) in [%d,%d] under sel %#x: CompareBlock %v, decode+mask %v, want %v",
				c.widths[b], b, i, v, lo, hi, sel, got[i/64]&bit != 0, viaDecode[i/64]&bit != 0, want)
		}
	}
	for wi := range got {
		if got[wi]&^sel[wi] != 0 {
			t.Fatalf("w=%d block %d: CompareBlock set bits outside sel: %#x from %#x", c.widths[b], b, got[wi], sel[wi])
		}
	}
}

// TestCompareBlockEveryWidth is the packed-compare property: for every width
// 0..64, block minimum and block shape, CompareBlock agrees with the row by
// row definition under random partial selections.
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

// FuzzCompareBlock drives CompareBlock with fuzzer-chosen width, block
// minimum, column length, predicate and selection, against the row by row
// definition. The committed corpus (testdata/fuzz/FuzzCompareBlock) holds one
// input per code path: a generated kernel under a full and under a sparse
// selection, a cross-word width, the widest kernel, the decode fallback for a
// wide width and for a partial block, an unbounded predicate, and the two
// hand-written widths 0 and 64.
func FuzzCompareBlock(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(BlockSize), int64(100), int64(3), int64(20), ^uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, minV, lo, hi int64, sel0, sel1 uint64) {
		w := uint(width % 65)
		if minV > int64(uint64(math.MaxInt64)-mask(w)) {
			minV = int64(uint64(math.MaxInt64) - mask(w))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		vals, c := widthColumn(rand.New(rand.NewSource(seed)), w, 2+int(n)%(3*BlockSize), minV)
		for b := 0; b < c.NumBlocks(); b++ {
			checkCompareBlock(t, c, vals, b, BlockBitmap{sel0, sel1}, lo, hi)
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
