package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// aggregateMasks returns the selection words the masked-aggregate properties
// run under: empty, one bit, full, a random word just below and just above
// the sparse/dense cut, and random sparse and dense ones.
func aggregateMasks(rng *rand.Rand) []uint64 {
	exactly := func(n int) uint64 {
		var w uint64
		for _, k := range rng.Perm(64)[:n] {
			w |= 1 << uint(k)
		}
		return w
	}
	return []uint64{
		0, 1 << uint(rng.Intn(64)), ^uint64(0),
		exactly(sparseAggregateBits), exactly(sparseAggregateBits + 1),
		rng.Uint64() & rng.Uint64() & rng.Uint64(), rng.Uint64() | rng.Uint64(),
	}
}

// checkAggregateBlock runs SumBlock, MinBlock and MaxBlock on block b under
// sel, cleared past the column's last row, against their definition: a loop
// over the selected rows through Get. The accumulators handed to MinBlock and
// MaxBlock are the identity, a value inside the block (so some rows beat it
// and some do not) and one the zone map cannot beat.
func checkAggregateBlock(t *testing.T, c *Column, b int, sel BlockBitmap) {
	t.Helper()
	cnt := min(BlockSize, c.Len()-b*BlockSize)
	var sum int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < BlockSize; i++ {
		bit := uint64(1) << uint(i%64)
		if i >= cnt {
			sel[i/64] &^= bit
		}
		if sel[i/64]&bit != 0 {
			v := c.Get(b*BlockSize + i)
			sum += v
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	if got := c.SumBlock(b, &sel); got != sum {
		t.Fatalf("w=%d min=%d block %d under %#x: SumBlock %d, want %d", c.widths[b], c.mins[b], b, sel, got, sum)
	}
	bmin, bmax := c.BlockBounds(b)
	for _, acc := range []int64{math.MinInt64, math.MaxInt64, bmin + (bmax-bmin)/2, bmin, bmax} {
		if got, want := c.MaxBlock(b, &sel, acc), max(acc, hi); got != want {
			t.Fatalf("w=%d min=%d block %d under %#x: MaxBlock(acc %d) %d, want %d", c.widths[b], c.mins[b], b, sel, acc, got, want)
		}
		if got, want := c.MinBlock(b, &sel, acc), min(acc, lo); got != want {
			t.Fatalf("w=%d min=%d block %d under %#x: MinBlock(acc %d) %d, want %d", c.widths[b], c.mins[b], b, sel, acc, got, want)
		}
	}
}

// TestAggregateBlockEveryWidth is the masked-aggregate property: for every
// width 0..64, block minimum (the bottom of the domain, the top, straddling
// zero — SUM wraps at the first two) and block shape (full, and a partial
// last block shorter and longer than one selection word), the three kernels
// agree with the row by row definition under every mask shape, in either
// word alone and in both.
func TestAggregateBlockEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for w := uint(0); w <= 64; w++ {
		for _, minV := range blockMins(w) {
			for _, n := range blockShapes {
				_, c := widthColumn(rng, w, n, minV)
				for b := 0; b < c.NumBlocks(); b++ {
					for _, m := range aggregateMasks(rng) {
						checkAggregateBlock(t, c, b, BlockBitmap{m, 0})
						checkAggregateBlock(t, c, b, BlockBitmap{0, m})
						checkAggregateBlock(t, c, b, BlockBitmap{m, m<<1 | m>>63})
					}
				}
			}
		}
	}
}

// FuzzAggregateBlock drives the masked aggregates with fuzzer-chosen width,
// block minimum, column length and selection, against the row by row
// definition. The committed corpus (testdata/fuzz/FuzzAggregateBlock) holds
// one input per code path: a dense and a sparse word through a generated
// kernel, a cross-word width, a width with no generated kernel, a partial
// last block, a SUM that wraps, and the widths 0 and 64.
func FuzzAggregateBlock(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(BlockSize), int64(100), ^uint64(0), uint64(7))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, minV int64, sel0, sel1 uint64) {
		w := uint(width % 65)
		if minV > int64(uint64(math.MaxInt64)-mask(w)) {
			minV = int64(uint64(math.MaxInt64) - mask(w))
		}
		_, c := widthColumn(rand.New(rand.NewSource(seed)), w, 2+int(n)%(3*BlockSize), minV)
		for b := 0; b < c.NumBlocks(); b++ {
			checkAggregateBlock(t, c, b, BlockBitmap{sel0, sel1})
		}
	})
}

// benchMask returns a selection of about one row in sixteen (under the
// sparse/dense cut) or three in four (over it).
func benchMask(dense bool) BlockBitmap {
	rng := rand.New(rand.NewSource(2))
	if dense {
		return BlockBitmap{rng.Uint64() | rng.Uint64(), rng.Uint64() | rng.Uint64()}
	}
	return BlockBitmap{
		rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64(),
		rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64(),
	}
}

// BenchmarkAggregateBlock measures one block's survivors folded under the
// mask, per aggregate, mask density and delta width: what an aggregator pays
// per filtered block. MAX starts from the identity, so the zone map never
// lets it skip the block.
func BenchmarkAggregateBlock(b *testing.B) {
	for _, agg := range []string{"count", "sum", "max"} {
		for _, density := range []string{"sparse", "dense"} {
			for _, w := range []uint{5, 12, 20, 22} {
				b.Run(fmt.Sprintf("%s/%s/w=%d", agg, density, w), func(b *testing.B) {
					c := benchColumn(w)
					sel := benchMask(density == "dense")
					var acc int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						blk := i & (c.NumBlocks() - 1)
						switch agg {
						case "count":
							acc += int64(sel.Count())
						case "sum":
							acc += c.SumBlock(blk, &sel)
						default:
							acc += c.MaxBlock(blk, &sel, math.MinInt64)
						}
					}
					benchSink = uint64(acc)
				})
			}
		}
	}
}
