package colstore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestColumnRoundtripSmall(t *testing.T) {
	cases := [][]int64{
		{0},
		{42},
		{-1, 0, 1},
		{math.MinInt64, math.MaxInt64},
		{5, 5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
	for _, vals := range cases {
		c := newColumn(vals)
		if c.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(vals))
		}
		for i, want := range vals {
			if got := c.Get(i); got != want {
				t.Fatalf("Get(%d) = %d, want %d (input %v)", i, got, want, vals)
			}
		}
	}
}

func TestColumnRoundtripExactBlockBoundaries(t *testing.T) {
	for _, n := range []int{BlockSize - 1, BlockSize, BlockSize + 1, 3 * BlockSize} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i * 31)
		}
		c := newColumn(vals)
		got := c.Decode()
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: Decode()[%d] = %d, want %d", n, i, got[i], vals[i])
			}
		}
	}
}

func TestColumnRoundtripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		c := newColumn(vals)
		for i, want := range vals {
			if c.Get(i) != want {
				return false
			}
		}
		dec := c.Decode()
		for i, want := range vals {
			if dec[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnRoundtripWideAndNarrowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 10 * BlockSize
	vals := make([]int64, n)
	for b := 0; b*BlockSize < n; b++ {
		// Alternate between constant, narrow, and full-width blocks to
		// exercise every bit-width path.
		var gen func() int64
		switch b % 3 {
		case 0:
			gen = func() int64 { return 7 }
		case 1:
			gen = func() int64 { return rng.Int63n(100) }
		default:
			gen = func() int64 { return int64(rng.Uint64()) }
		}
		for i := 0; i < BlockSize; i++ {
			vals[b*BlockSize+i] = gen()
		}
	}
	c := newColumn(vals)
	for i, want := range vals {
		if got := c.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestColumnDecodeBlockPartial(t *testing.T) {
	vals := make([]int64, BlockSize+17)
	for i := range vals {
		vals[i] = int64(i * i)
	}
	c := newColumn(vals)
	var buf [BlockSize]int64
	if cnt := c.DecodeBlock(1, buf[:]); cnt != 17 {
		t.Fatalf("DecodeBlock(1) count = %d, want 17", cnt)
	}
	for i := 0; i < 17; i++ {
		if buf[i] != vals[BlockSize+i] {
			t.Fatalf("block 1 value %d = %d, want %d", i, buf[i], vals[BlockSize+i])
		}
	}
}

func TestColumnCompressionEffectiveness(t *testing.T) {
	// Smooth data should compress far below 8 bytes/value.
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = 1_000_000 + int64(i%50)
	}
	c := newColumn(vals)
	if raw := int64(len(vals)) * 8; c.SizeBytes() >= raw/4 {
		t.Fatalf("compressed %d bytes, want < 1/4 of %d", c.SizeBytes(), raw)
	}
}

func BenchmarkColumnGet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	c := newColumn(vals)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += c.Get(i & (1<<20 - 1))
	}
	_ = sink
}

func BenchmarkColumnDecodeBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	c := newColumn(vals)
	var buf [BlockSize]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DecodeBlock(i&(1<<13-1), buf[:])
	}
}

func TestColumnEmpty(t *testing.T) {
	c := newColumn(nil)
	if c.Len() != 0 || c.NumBlocks() != 0 {
		t.Fatalf("empty column: Len=%d NumBlocks=%d", c.Len(), c.NumBlocks())
	}
	if got := c.Decode(); len(got) != 0 {
		t.Fatalf("Decode of empty column returned %d values", len(got))
	}
	if c.SizeBytes() < 0 {
		t.Fatalf("empty column size: %d", c.SizeBytes())
	}
	if got := c.LowerBound(0, 0, 42); got != 0 {
		t.Fatalf("LowerBound on empty column = %d, want 0", got)
	}
}

func TestColumnSingleBlockTail(t *testing.T) {
	// A column smaller than one block: the only block is a tail block.
	for _, n := range []int{1, 2, BlockSize / 2, BlockSize - 1} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i*i - 50)
		}
		c := newColumn(vals)
		if c.NumBlocks() != 1 {
			t.Fatalf("n=%d: NumBlocks = %d, want 1", n, c.NumBlocks())
		}
		var buf [BlockSize]int64
		if cnt := c.DecodeBlock(0, buf[:]); cnt != n {
			t.Fatalf("n=%d: DecodeBlock count = %d", n, cnt)
		}
		for i := range vals {
			if buf[i] != vals[i] || c.Get(i) != vals[i] {
				t.Fatalf("n=%d: value %d mismatch", n, i)
			}
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if bmin, bmax := c.BlockBounds(0); bmin != lo || bmax != hi {
			t.Fatalf("n=%d: BlockBounds = (%d, %d), want (%d, %d)", n, bmin, bmax, lo, hi)
		}
	}
}

func TestColumnWidth64Deltas(t *testing.T) {
	// Min/max spanning the full int64 range forces 64-bit deltas; the
	// specialized width-64 decode loop and the zone map must both survive
	// the unsigned wraparound.
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 2*BlockSize+13)
	for i := range vals {
		vals[i] = int64(rng.Uint64())
	}
	vals[0] = math.MinInt64
	vals[1] = math.MaxInt64
	vals[2*BlockSize] = math.MaxInt64 // tail block extreme
	c := newColumn(vals)
	var buf [BlockSize]int64
	for b := 0; b < c.NumBlocks(); b++ {
		cnt := c.DecodeBlock(b, buf[:])
		lo, hi := buf[0], buf[0]
		for i := 0; i < cnt; i++ {
			if want := vals[b*BlockSize+i]; buf[i] != want {
				t.Fatalf("block %d value %d = %d, want %d", b, i, buf[i], want)
			}
			if buf[i] < lo {
				lo = buf[i]
			}
			if buf[i] > hi {
				hi = buf[i]
			}
		}
		bmin, bmax := c.BlockBounds(b)
		if bmin != lo || bmax != hi {
			t.Fatalf("block %d bounds = (%d, %d), want (%d, %d)", b, bmin, bmax, lo, hi)
		}
	}
}

// TestColumnDecodeBlockAgreesWithGet is the DecodeBlock-vs-Get property
// test: for random columns of every width class, block decoding and random
// access must agree on every row, and zone maps must be exact.
func TestColumnDecodeBlockAgreesWithGet(t *testing.T) {
	f := func(seed int64, nBlocks uint8, tail uint8, widthClass uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nBlocks%5)*BlockSize + int(tail)%BlockSize
		if n == 0 {
			n = 1
		}
		vals := make([]int64, n)
		for i := range vals {
			switch widthClass % 6 {
			case 0:
				vals[i] = 77 // width 0
			case 1:
				vals[i] = rng.Int63n(200) // width 8
			case 2:
				vals[i] = -1000 + rng.Int63n(1<<16) // width 16
			case 3:
				vals[i] = rng.Int63n(1 << 32) // width 32
			case 4:
				vals[i] = int64(rng.Uint64()) // width 64
			default:
				vals[i] = rng.Int63n(1 << 21) // generic width
			}
		}
		c := newColumn(vals)
		var buf [BlockSize]int64
		for b := 0; b < c.NumBlocks(); b++ {
			cnt := c.DecodeBlock(b, buf[:])
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			for i := 0; i < cnt; i++ {
				row := b*BlockSize + i
				if buf[i] != c.Get(row) || buf[i] != vals[row] {
					return false
				}
				if buf[i] < lo {
					lo = buf[i]
				}
				if buf[i] > hi {
					hi = buf[i]
				}
			}
			if bmin, bmax := c.BlockBounds(b); bmin != lo || bmax != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestColumnLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5*BlockSize + 31
	vals := make([]int64, n)
	v := int64(-4000)
	for i := range vals {
		v += rng.Int63n(7) // sorted with duplicates
		vals[i] = v
	}
	c := newColumn(vals)
	check := func(start, end int, target int64) {
		t.Helper()
		want := start
		for want < end && vals[want] < target {
			want++
		}
		if got := c.LowerBound(start, end, target); got != want {
			t.Fatalf("LowerBound(%d, %d, %d) = %d, want %d", start, end, target, got, want)
		}
		if got := c.LowerBoundFrom(start, end, target); got != want {
			t.Fatalf("LowerBoundFrom(%d, %d, %d) = %d, want %d", start, end, target, got, want)
		}
	}
	for trial := 0; trial < 500; trial++ {
		start := rng.Intn(n)
		end := start + rng.Intn(n-start+1)
		var target int64
		switch trial % 3 {
		case 0:
			target = vals[rng.Intn(n)]
		case 1:
			target = vals[rng.Intn(n)] + 1
		default:
			target = -5000 + rng.Int63n(12000)
		}
		check(start, end, target)
	}
	check(0, n, math.MinInt64)
	check(0, n, math.MaxInt64)
}

// TestLowerBoundMatchesSortSearch holds LowerBound and LowerBoundFrom to
// sort.Search over the decoded values, for every delta width 0–64 and for
// windows that sit inside one block, cover exactly one, start and end
// mid-block across several, run into a partial tail block, or are empty.
// Rows outside the window are unsorted neighbours drawn from the same value
// range, so the blocks the window shares with them keep the width under
// test. Half the windows draw from nine distinct values: long duplicate runs.
func TestLowerBoundMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	signed := func(u uint64) int64 { return int64(u ^ 1<<63) } // order-preserving
	shapes := []struct{ n, start, end int }{
		{3 * BlockSize, BlockSize + 5, 2*BlockSize - 7},
		{3 * BlockSize, BlockSize, 2 * BlockSize},
		{6 * BlockSize, BlockSize + 64, 4*BlockSize + 3},
		{4*BlockSize + 37, 77, 4*BlockSize + 37},
		{2 * BlockSize, 140, 140},
	}
	for w := 0; w <= 64; w++ {
		spreadMask := ^uint64(0)
		if w < 64 {
			spreadMask = 1<<uint(w) - 1
		}
		off := rng.Uint64() &^ spreadMask // aligned, so off+spreadMask never wraps
		for si, sh := range shapes {
			pool := make([]uint64, 9)
			for i := range pool {
				pool[i] = rng.Uint64() & spreadMask
			}
			delta := func() uint64 {
				if si%2 == 1 || w%2 == 1 {
					return pool[rng.Intn(len(pool))]
				}
				return rng.Uint64() & spreadMask
			}
			vals := make([]int64, sh.n)
			for i := range vals {
				vals[i] = signed(off + delta())
			}
			if sh.end-sh.start >= 2 {
				vals[sh.start], vals[sh.start+1] = signed(off), signed(off+spreadMask)
			}
			win := vals[sh.start:sh.end]
			sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
			c := newColumn(vals)
			if b := sh.start / BlockSize; sh.end-sh.start >= 2 && b == (sh.end-1)/BlockSize && int(c.widths[b]) != w {
				t.Fatalf("width %d: the window's block is %d bits wide", w, c.widths[b])
			}

			targets := []int64{math.MinInt64, math.MaxInt64, signed(off), signed(off + spreadMask)}
			for k := 0; k < 24 && len(win) > 0; k++ {
				v := win[rng.Intn(len(win))]
				targets = append(targets, v, v-1, v+1)
			}
			for _, v := range targets {
				want := sh.start + sort.Search(len(win), func(i int) bool { return win[i] >= v })
				if got := c.LowerBound(sh.start, sh.end, v); got != want {
					t.Fatalf("width %d, window [%d,%d): LowerBound(%d) = %d, want %d", w, sh.start, sh.end, v, got, want)
				}
				if got := c.LowerBoundFrom(sh.start, sh.end, v); got != want {
					t.Fatalf("width %d, window [%d,%d): LowerBoundFrom(%d) = %d, want %d", w, sh.start, sh.end, v, got, want)
				}
			}
		}
	}
}

// FuzzColumnLowerBound holds LowerBound and LowerBoundFrom to a linear scan
// over a sorted run placed at an unaligned offset, with unsorted smaller and
// larger values before and after it in the same blocks — what a cell boundary
// inside a block looks like, where the edge blocks' minima are not the run's.
// The run's values spread over spreadBits bits (0 is one repeated value) from
// a base that may be near either end of the int64 range; start and end are
// drawn from the run's ends, its block boundaries and rows inside it, and v
// from block minima, the run's end values, rows ±1 and values outside the run.
func FuzzColumnLowerBound(f *testing.F) {
	f.Add(int64(1), uint16(37), uint16(1500), uint16(90), uint8(12), int64(-5000))
	f.Add(int64(2), uint16(0), uint16(BlockSize), uint16(0), uint8(0), int64(7))
	f.Add(int64(3), uint16(127), uint16(2), uint16(1), uint8(63), int64(math.MinInt64))
	f.Add(int64(4), uint16(200), uint16(40*BlockSize+3), uint16(300), uint8(3), int64(math.MaxInt64-100))
	f.Fuzz(func(t *testing.T, seed int64, preB, nB, postB uint16, spreadBits uint8, base int64) {
		pre, n, post := int(preB)%(3*BlockSize), int(nB)%(48*BlockSize), int(postB)%(3*BlockSize)
		spread := uint64(1)<<(spreadBits%64) - 1
		if uint64(math.MaxInt64)-uint64(base) < spread { // keep base+spread in range
			base = int64(uint64(math.MaxInt64) - spread)
		}
		rng := rand.New(rand.NewSource(seed))
		draw := func() int64 { return base + int64(rng.Uint64()&spread) }
		vals := make([]int64, pre+n+post)
		for i := range vals {
			vals[i] = draw()
		}
		run := vals[pre : pre+n]
		slices.Sort(run)
		for i := range pre + post { // the neighbours: anything at all
			if i >= pre {
				i += n
			}
			if rng.Intn(3) > 0 {
				vals[i] = int64(rng.Uint64())
			}
		}
		c := newColumn(vals)

		rows := []int{pre, pre + n}
		for b := (pre + BlockSize - 1) / BlockSize * BlockSize; b <= pre+n; b += BlockSize {
			rows = append(rows, b)
		}
		for range 4 {
			rows = append(rows, pre+rng.Intn(n+1))
		}
		targets := []int64{math.MinInt64, math.MaxInt64, base - 1, base + int64(spread) + 1}
		for b := range c.NumBlocks() {
			lo, hi := c.BlockBounds(b)
			targets = append(targets, lo, hi)
		}
		if n > 0 {
			targets = append(targets, run[0], run[n-1])
			for range 8 {
				v := run[rng.Intn(n)]
				targets = append(targets, v, v-1, v+1)
			}
		}
		for _, start := range rows {
			for _, end := range rows {
				if end < start {
					continue
				}
				for _, v := range targets {
					want := start
					for want < end && vals[want] < v {
						want++
					}
					if got := c.LowerBound(start, end, v); got != want {
						t.Fatalf("run [%d,%d): LowerBound(%d, %d, %d) = %d, want %d", pre, pre+n, start, end, v, got, want)
					}
					if got := c.LowerBoundFrom(start, end, v); got != want {
						t.Fatalf("run [%d,%d): LowerBoundFrom(%d, %d, %d) = %d, want %d", pre, pre+n, start, end, v, got, want)
					}
				}
			}
		}
	})
}

// TestNewColumnWordsMatchBitwiseDefinition packs every delta width the slow
// way — each delta OR-ed into the packed words at bit blockStart + row·width,
// spilling into the next word when it straddles one — and requires newColumn,
// which assembles words in a register, to produce the same words: the packed
// form is what snapshots store, so its unused bits matter too.
func TestNewColumnWordsMatchBitwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for w := uint(0); w <= 64; w++ {
		n := 3*BlockSize + 1 + rng.Intn(BlockSize-1)
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Uint64()&mask(w)) - 1<<40
		}
		c := newColumn(values)
		want := make([]uint64, len(c.words))
		for i, v := range values {
			b := i / BlockSize
			bw := uint(c.widths[b])
			if bw == 0 {
				continue
			}
			delta := uint64(v) - uint64(c.mins[b])
			pos := uint(c.offsets[b])*64 + uint(i%BlockSize)*bw
			want[pos>>6] |= delta << (pos & 63)
			if pos&63+bw > 64 {
				want[pos>>6+1] |= delta >> (64 - pos&63)
			}
		}
		if !slices.Equal(c.words, want) {
			t.Fatalf("width %d: packed words differ from the bit-position definition", w)
		}
	}
}
