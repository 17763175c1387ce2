package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"flood/internal/wire"
)

// lowCardColumn builds a column of n values drawn from [base, base+card).
func lowCardColumn(n int, base int64, card int, seed int64) (*Column, []int64) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = base + rng.Int63n(int64(card))
	}
	return newColumn(vals), vals
}

func TestBitmapIndexSkipsUnqualifiedColumns(t *testing.T) {
	if bi := newBitmapIndex(newColumn(nil), 64); bi != nil {
		t.Fatal("empty column should not build a bitmap index")
	}
	c, _ := lowCardColumn(100, 0, 10, 1)
	if bi := newBitmapIndex(c, 0); bi != nil {
		t.Fatal("maxCard 0 should disable bitmap indexes")
	}
	wide := newColumn([]int64{0, 1 << 40})
	if bi := newBitmapIndex(wide, 64); bi != nil {
		t.Fatal("wide-spread column should not build a bitmap index")
	}
	// maxCard bounds the value count (spread+1): exactly at the threshold
	// builds, one over does not.
	edge := newColumn([]int64{5, 5 + 9}) // 10 distinct values in the domain
	if bi := newBitmapIndex(edge, 9); bi != nil {
		t.Fatal("domain of 10 values should be rejected at maxCard 9")
	}
	if bi := newBitmapIndex(edge, 10); bi == nil {
		t.Fatal("domain of 10 values should build at maxCard 10")
	} else if bi.card != 10 || bi.min != 5 {
		t.Fatalf("card=%d min=%d, want 10, 5", bi.card, bi.min)
	}
}

// bruteAndBlock recomputes what AndBlock should leave in sel for block b.
func bruteAndBlock(vals []int64, sel BlockBitmap, b int, lo, hi int64) BlockBitmap {
	base := b * BlockSize
	var out BlockBitmap
	for i := 0; i < BlockSize; i++ {
		row := base + i
		if row >= len(vals) {
			break
		}
		if sel[i/64]&(1<<uint(i%64)) == 0 {
			continue
		}
		if vals[row] >= lo && vals[row] <= hi {
			out[i/64] |= 1 << uint(i%64)
		}
	}
	return out
}

// andBlock is AndBlock through a range planned for block b alone.
func andBlock(bi *BitmapIndex, sel *BlockBitmap, b int, lo, hi int64) {
	r := bi.Range(lo, hi)
	r.AndBlock(sel, b)
}

func TestBitmapIndexAndBlockMatchesBruteForce(t *testing.T) {
	// 5 full blocks plus a partial trailing block; negative domain base
	// exercises the signed min/max handling.
	const n = 5*BlockSize + 37
	c, vals := lowCardColumn(n, -3, 17, 2)
	bi := newBitmapIndex(c, 64)
	if bi == nil {
		t.Fatal("index should build")
	}
	rng := rand.New(rand.NewSource(3))
	nBlocks := (n + BlockSize - 1) / BlockSize
	for trial := 0; trial < 500; trial++ {
		b := rng.Intn(nBlocks)
		// Bounds beyond the domain on both sides exercise clamping.
		lo := int64(-10 + rng.Intn(30))
		hi := lo + int64(rng.Intn(25))
		var sel BlockBitmap
		for k := range sel {
			sel[k] = rng.Uint64()
		}
		want := bruteAndBlock(vals, sel, b, lo, hi)
		got := sel
		andBlock(bi, &got, b, lo, hi)
		if got != want {
			t.Fatalf("trial %d: AndBlock(b=%d, [%d,%d]) = %v, want %v", trial, b, lo, hi, got, want)
		}
	}
}

// TestBitmapIndexAndBlockEveryRange checks AndBlock against the per-row
// definition for every domain of 1 to 64 values and every [lo, hi] from two
// below the domain to two above it — single values, inverted ranges and
// ranges clamped on either or both sides included — in every block of a
// column of one full stripe and a partial one whose last block and last
// word are partial, under a full and a random selection.
func TestBitmapIndexAndBlockEveryRange(t *testing.T) {
	const n, base = stripeRows + 70, -4
	rng := rand.New(rand.NewSource(10))
	for card := 1; card <= 64; card++ {
		_, vals := lowCardColumn(n, base, card, int64(card))
		vals[0], vals[n-1] = base, base+int64(card)-1 // the whole domain occurs
		c := newColumn(vals)
		bi := newBitmapIndex(c, 64)
		if bi == nil || bi.card != card {
			t.Fatalf("index over %d values did not build as such: %v", card, bi)
		}
		for b := 0; b < c.NumBlocks(); b++ {
			for lo := int64(base - 2); lo <= base+int64(card)+1; lo++ {
				for hi := int64(base - 2); hi <= base+int64(card)+1; hi++ {
					for _, sel := range []BlockBitmap{{^uint64(0), ^uint64(0)}, {rng.Uint64(), rng.Uint64()}} {
						got := sel
						andBlock(bi, &got, b, lo, hi)
						if want := bruteAndBlock(vals, sel, b, lo, hi); got != want {
							t.Fatalf("card %d: AndBlock(b=%d, [%d,%d]) under %#x = %#x, want %#x", card, b, lo, hi, sel, got, want)
						}
					}
				}
			}
		}
		// The extremes of int64 clamp like any other bound outside the domain.
		top := base + int64(card) - 1
		for _, r := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MinInt64, base}, {top, math.MaxInt64}, {math.MaxInt64, math.MinInt64}} {
			for b := 0; b < c.NumBlocks(); b++ {
				got := BlockBitmap{^uint64(0), ^uint64(0)}
				andBlock(bi, &got, b, r[0], r[1])
				if want := bruteAndBlock(vals, BlockBitmap{^uint64(0), ^uint64(0)}, b, r[0], r[1]); got != want {
					t.Fatalf("card %d: AndBlock(b=%d, [%d,%d]) = %#x, want %#x", card, b, r[0], r[1], got, want)
				}
			}
		}
	}
}

// TestBitmapIndexSizeIsOneBitmapPerTwoValues pins the footprint: interval
// encoding stores ⌈c/2⌉ bitmaps of a stripe's eight words for each stripe
// over c values, none for a constant stripe, plus a 32-byte header per run
// of stripes over one domain and each stripe's run number — about half the one bitmap per value of the
// column's domain the wire form carries, less where stripes hold less of it.
func TestBitmapIndexSizeIsOneBitmapPerTwoValues(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 64, 65, 5*BlockSize + 37, 3*stripeRows + 64, 9 * stripeRows} {
		for _, card := range []int{1, 2, 9, 50, 64} {
			for shape := range uint8(3) {
				vals := stripedValues(rng, shape, n, 3, card)
				bi := newBitmapIndex(newColumn(vals), 64)
				if got := int(slices.Max(vals)-slices.Min(vals)) + 1; bi.card != got {
					t.Fatalf("n=%d: cardinality %d, want %d", n, bi.card, got)
				}
				want := int64(0)
				var prev [2]int64
				for lo := 0; lo < n; lo += stripeRows {
					stripe := vals[lo:min(lo+stripeRows, n)]
					dom := [2]int64{slices.Min(stripe), slices.Max(stripe)}
					if c := int(dom[1]-dom[0]) + 1; c > 1 {
						want += int64((c+1)/2) * stripeWords * 8
					}
					if lo == 0 || dom != prev {
						want += 32 // a run's domain, offset and length
					}
					want += 4 // the stripe's run
					prev = dom
				}
				if bi.SizeBytes() != want {
					t.Fatalf("n=%d card=%d shape %d: SizeBytes %d, want %d", n, bi.card, shape, bi.SizeBytes(), want)
				}
			}
		}
	}
}

// TestBitmapIndexBuildAllocatesOnlyItsWords holds a build to exactly the
// index's own words, its run tables and its struct, plus the per-value
// word buffer of a domain wider than the stack one: no per-value scratch of
// card × ⌈n/64⌉ words, no decoded copy of the column and no growth of the
// words, which are allocated once at the size the zone maps give.
func TestBitmapIndexBuildAllocatesOnlyItsWords(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 64*BlockSize + 37
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, card := range []int{50, 64, 100} {
		c, _ := lowCardColumn(n, 0, card, int64(card))
		var bi *BitmapIndex
		got := allocated(func() { bi = newBitmapIndex(c, 128) })
		if bi == nil || bi.card != card {
			t.Fatalf("card %d: index did not build", card)
		}
		// Each part as the allocator rounds it.
		limit := allocated(func() { wordsSink = make([]uint64, len(bi.bits)) }) +
			allocated(func() { runsSink = make([]bitmapRun, len(bi.runs)) }) +
			allocated(func() { runOfSink = make([]uint32, len(bi.runOf)) }) +
			allocated(func() { indexSink = new(BitmapIndex) })
		if card > 64 {
			limit += allocated(func() { wordsSink = make([]uint64, card) })
		}
		if got > limit {
			t.Errorf("card %d: build allocated %d B, want at most %d (the index is %d B)", card, got, limit, bi.SizeBytes())
		}
	}
}

var (
	wordsSink []uint64
	runsSink  []bitmapRun
	runOfSink []uint32
	indexSink *BitmapIndex
)

// TestBitmapIndexRoundTripEveryCardinality encodes and decodes the index of
// every domain of 1 to 64 values, in the middle and at both ends of int64,
// over rows whose last word is partial: the wire form is one bitmap per
// value, and decoding restores the intervals exactly.
func TestBitmapIndexRoundTripEveryCardinality(t *testing.T) {
	const n = 2*BlockSize + 45
	nWords := (n + 63) / 64
	for card := 1; card <= 64; card++ {
		for _, base := range []int64{7, math.MinInt64, math.MaxInt64 - int64(card) + 1} {
			_, vals := lowCardColumn(n, 0, card, int64(card))
			for i := range vals {
				vals[i] += base
			}
			vals[0], vals[n-1] = base, base+int64(card)-1
			bi := newBitmapIndex(newColumn(vals), 64)
			enc := encodeBitmap(t, bi)

			want := encodeBytes(t, func(w *wire.Writer) {
				w.I64(base)
				w.Int(card)
				w.Int(n)
				eq := make([]uint64, card*nWords)
				for row, v := range vals {
					eq[int(v-base)*nWords+row/64] |= 1 << uint(row%64)
				}
				w.U64s(eq)
			})
			if !bytes.Equal(enc, want) {
				t.Fatalf("card %d at %d: encoded bitmap index is not the per-value layout", card, base)
			}
			dec, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n)
			if err != nil {
				t.Fatalf("card %d at %d: %v", card, base, err)
			}
			if dec.min != bi.min || dec.card != bi.card || dec.n != bi.n ||
				!slices.Equal(dec.runs, bi.runs) || !slices.Equal(dec.bits, bi.bits) {
				t.Fatalf("card %d at %d: decoded index differs from the built one", card, base)
			}
		}
	}
}

func TestBitmapIndexAndBlockEmptyIntersection(t *testing.T) {
	c, _ := lowCardColumn(200, 0, 8, 4)
	bi := newBitmapIndex(c, 64)
	sel := BlockBitmap{^uint64(0), ^uint64(0)}
	andBlock(bi, &sel, 0, 100, 200) // entirely above the domain
	if sel != (BlockBitmap{}) {
		t.Fatalf("disjoint range should zero sel, got %v", sel)
	}
	sel = BlockBitmap{^uint64(0), ^uint64(0)}
	andBlock(bi, &sel, 0, -50, -10) // entirely below the domain
	if sel != (BlockBitmap{}) {
		t.Fatalf("disjoint range should zero sel, got %v", sel)
	}
}

func TestBitmapIndexTailBitsZero(t *testing.T) {
	// Rows at or beyond n must never be set, even with a full-domain range.
	const n = BlockSize + 5
	c, _ := lowCardColumn(n, 0, 4, 5)
	bi := newBitmapIndex(c, 64)
	sel := BlockBitmap{^uint64(0), ^uint64(0)}
	andBlock(bi, &sel, 1, 0, 3)
	for i := n - BlockSize; i < BlockSize; i++ {
		if sel[i/64]&(1<<uint(i%64)) != 0 {
			t.Fatalf("bit %d set beyond row count", i)
		}
	}
}

func TestBitmapIndexRoundTrip(t *testing.T) {
	const n = 3*BlockSize + 11
	c, vals := lowCardColumn(n, 2, 23, 6)
	bi := newBitmapIndex(c, 64)

	enc := encodeBitmap(t, bi)
	got, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n)
	if err != nil {
		t.Fatal(err)
	}
	if got.card != bi.card || got.min != bi.min {
		t.Fatalf("round trip changed domain: card %d→%d min %d→%d",
			bi.card, got.card, bi.min, got.min)
	}
	// Decoded index answers identically.
	sel1 := BlockBitmap{^uint64(0), ^uint64(0)}
	sel2 := sel1
	andBlock(bi, &sel1, 1, 5, 9)
	andBlock(got, &sel2, 1, 5, 9)
	if sel1 != sel2 {
		t.Fatalf("decoded index disagrees: %v vs %v", sel1, sel2)
	}
	_ = vals

	// Row-count mismatch and truncation must error, not decode garbage.
	if _, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n+1); err == nil {
		t.Fatal("want error for row-count mismatch")
	}
	if _, err := DecodeBitmapIndex(wire.NewReaderBytes(enc[:8]), n); err == nil {
		t.Fatal("want error for truncated payload")
	}
}

// encodeBitmap returns bi's wire form.
func encodeBitmap(t *testing.T, bi *BitmapIndex) []byte { return encodeBytes(t, bi.Encode) }

// encodeBytes returns what encode writes through a wire.Writer: the payload
// of the one section a SectionWriter frames around it, read back.
func encodeBytes(t testing.TB, encode func(*wire.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := wire.NewSectionWriter(&buf)
	sw.Section("test", encode)
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.NewSectionReader(&buf, 1).Next()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestBitmapIndexWireFormIsPerValue pins the snapshot payload: whatever the
// index holds in memory, the wire carries one bitmap per value with exactly
// the rows holding that value — the layout every earlier snapshot has — and
// re-encoding a decoded index reproduces the bytes.
func TestBitmapIndexWireFormIsPerValue(t *testing.T) {
	const n = 2*BlockSize + 19
	c, vals := lowCardColumn(n, -2, 7, 11)
	bi := newBitmapIndex(c, 64)
	enc := encodeBitmap(t, bi)

	want := encodeBytes(t, func(w *wire.Writer) {
		w.I64(-2)
		w.Int(7)
		w.Int(n)
		nWords := (n + 63) / 64
		eq := make([]uint64, 7*nWords)
		for row, v := range vals {
			eq[int(v+2)*nWords+row/64] |= 1 << uint(row%64)
		}
		w.U64s(eq)
	})
	if !bytes.Equal(enc, want) {
		t.Fatal("encoded bitmap index is not the per-value layout")
	}
	dec, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBitmap(t, dec), enc) {
		t.Fatal("encode → decode → encode changed the bytes")
	}
}

// TestDecodeBitmapIndexChecksContent damages a payload in ways that keep its
// shape: the decoder must refuse a row filed under two values, a row filed
// under none, and a bit past the last row.
func TestDecodeBitmapIndexChecksContent(t *testing.T) {
	const n = BlockSize + 40 // three words per bitmap, the last partial
	c, _ := lowCardColumn(n, 0, 5, 12)
	enc := encodeBitmap(t, newBitmapIndex(c, 64))
	const header = 4 * 8 // min, card, n, word count
	word := func(v, k int) int { return header + (v*3+k)*8 }
	for name, damage := range map[string]func(p []byte){
		"row under two values": func(p []byte) {
			for i := 0; i < 8; i++ {
				p[word(1, 0)+i] |= p[word(0, 0)+i]
			}
		},
		"row under no value": func(p []byte) {
			for v := 0; v < 5; v++ {
				p[word(v, 1)] &^= 1
			}
		},
		"bit past the last row": func(p []byte) { p[word(2, 2)+7] |= 0x80 },
	} {
		p := append([]byte(nil), enc...)
		damage(p)
		if bytes.Equal(p, enc) {
			t.Fatalf("%s: damage changed nothing", name)
		}
		if _, err := DecodeBitmapIndex(wire.NewReaderBytes(p), n); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n); err != nil {
		t.Fatalf("undamaged payload: %v", err)
	}
	// A cardinality chosen to wrap card × words back to the payload length.
	p := append([]byte(nil), enc[:header]...)
	binary.LittleEndian.PutUint64(p[8:], 1<<62) // card; × 4 words = 2^64
	binary.LittleEndian.PutUint64(p[16:], 4*64) // n
	binary.LittleEndian.PutUint64(p[24:], 0)    // words that follow
	if _, err := DecodeBitmapIndex(wire.NewReaderBytes(p), 4*64); err == nil {
		t.Error("wrapping cardinality decoded without error")
	}
}

func TestEnableBitmapIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 400
	low := make([]int64, n)  // qualifies: 6 distinct values
	wide := make([]int64, n) // does not: large spread
	for i := 0; i < n; i++ {
		low[i] = rng.Int63n(6)
		wide[i] = rng.Int63n(1 << 30)
	}
	tbl, err := NewTable([]string{"low", "wide"}, [][]int64{low, wide})
	if err != nil {
		t.Fatal(err)
	}
	if built := tbl.EnableBitmapIndexes(64); built != 1 {
		t.Fatalf("built %d indexes, want 1", built)
	}
	if tbl.Bitmap(0) == nil || tbl.Bitmap(1) != nil {
		t.Fatalf("Bitmap(0)=%v Bitmap(1)=%v, want index only on low column", tbl.Bitmap(0), tbl.Bitmap(1))
	}
	if tbl.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should include bitmap footprint")
	}
	if built := tbl.EnableBitmapIndexes(-1); built != 0 {
		t.Fatal("negative maxCard should clear indexes")
	}
	if tbl.Bitmap(0) != nil {
		t.Fatal("indexes should be cleared")
	}
}

// BenchmarkBitmapAndBlock measures one block's predicate resolved through the
// bitmap index, by the number of values the range spans: interval encoding
// makes it two bitmaps whatever the span. One range is reused over the
// blocks a scan hands it — those whose zone map straddles the range — in
// order, as a scan reuses it over a span. The uniform column's stripes all
// hold the whole domain of 40 values, so the range is planned once; the
// drifting column's window of eight values moves across the domain as a
// grid dimension's values do after a build, so the range replans whenever
// it reaches a stripe with another domain.
func BenchmarkBitmapAndBlock(b *testing.B) {
	const n = 1 << 17
	uniform, _ := lowCardColumn(n, 0, 40, 13)
	rng, window := rand.New(rand.NewSource(13)), make([]int64, n)
	for i := range window {
		window[i] = int64(i*33/n) + rng.Int63n(8)
	}
	drifting := newColumn(window)
	for _, col := range []struct {
		name string
		c    *Column
	}{{"", uniform}, {"drifting/", drifting}} {
		bi := newBitmapIndex(col.c, 64)
		for _, values := range []int64{1, 8, 32} {
			lo, hi := int64(4), 4+values-1
			var blocks []int
			for blk := range col.c.NumBlocks() {
				if mn, mx := col.c.BlockBounds(blk); mn <= hi && mx >= lo && (mn < lo || mx > hi) {
					blocks = append(blocks, blk)
				}
			}
			b.Run(fmt.Sprintf("%svalues=%d", col.name, values), func(b *testing.B) {
				r := bi.Range(lo, hi)
				var kept uint64
				for i, k := 0, 0; i < b.N; i, k = i+1, k+1 {
					if k == len(blocks) {
						k = 0
					}
					sel := BlockBitmap{^uint64(0), ^uint64(0)}
					r.AndBlock(&sel, blocks[k])
					kept += sel[0] ^ sel[1]
				}
				benchSink = kept
			})
		}
	}
}

// stripedValues returns n values over [base, base+card) shaped as shape
// picks: i.i.d. over the domain (0); a window of at most eight values
// drifting from the bottom of the domain to its top, as a grid dimension
// looks after a build (1); or per stripe a constant or a pair of adjacent
// values at a random place in the domain (2).
func stripedValues(rng *rand.Rand, shape uint8, n int, base int64, card int) []int64 {
	vals := make([]int64, n)
	switch shape % 3 {
	case 0:
		for i := range vals {
			vals[i] = base + rng.Int63n(int64(card))
		}
	case 1:
		width := 1 + rng.Intn(min(card, 8))
		for i := range vals {
			vals[i] = base + int64(i*(card-width+1)/n) + rng.Int63n(int64(width))
		}
	case 2:
		for lo := 0; lo < n; lo += stripeRows {
			c := min(card, 1+rng.Intn(2))
			from := base + rng.Int63n(int64(card-c+1))
			for i := lo; i < min(lo+stripeRows, n); i++ {
				vals[i] = from + rng.Int63n(int64(c))
			}
		}
	}
	return vals
}

// checkEveryBlock checks one range reused over every block of bi in order,
// and every block under a range planned for it alone, against the per-row
// definition under sel.
func checkEveryBlock(t *testing.T, bi *BitmapIndex, vals []int64, lo, hi int64, sel BlockBitmap) {
	t.Helper()
	r := bi.Range(lo, hi)
	for b := range (len(vals) + BlockSize - 1) / BlockSize {
		want := bruteAndBlock(vals, sel, b, lo, hi)
		got := sel
		r.AndBlock(&got, b)
		fresh := sel
		andBlock(bi, &fresh, b, lo, hi)
		if got != want || fresh != want {
			t.Fatalf("n %d: AndBlock(b=%d, [%d,%d]) under %#x = %#x in order, %#x alone, want %#x",
				len(vals), b, lo, hi, sel, got, fresh, want)
		}
	}
}

// TestBitmapIndexStripeDomains checks every range from two below to two
// above the domain, over every block, on columns whose stripes each hold
// their own slice of the domain — drifting windows, constants and pairs —
// with a partial last stripe whose last word is partial, one range reused
// across stripes of different domains as the scanner reuses it; and that
// SetColumn and the wire round trip build the same index.
func TestBitmapIndexStripeDomains(t *testing.T) {
	const n = 5*stripeRows + 2*BlockSize + 37
	rng := rand.New(rand.NewSource(14))
	for _, card := range []int{2, 3, 9, 40} {
		for shape := range uint8(3) {
			vals := stripedValues(rng, shape, n, -7, card)
			bi := newBitmapIndex(newColumn(vals), 64)
			// A writer gathering the column through a permutation builds
			// the same index.
			perm := rng.Perm(n)
			rows, src := make([]int32, n), make([]int64, n)
			for r, p := range perm {
				rows[r], src[p] = int32(p), vals[r]
			}
			tw := NewTableWriter([]string{"v"}, n, 64)
			tw.SetColumn(0, src, rows, false)
			if !reflect.DeepEqual(tw.Table().Bitmap(0), bi) {
				t.Fatalf("card %d shape %d: SetColumn built another index than newBitmapIndex", card, shape)
			}
			enc := encodeBitmap(t, bi)
			dec, err := DecodeBitmapIndex(wire.NewReaderBytes(enc), n)
			if err != nil {
				t.Fatalf("card %d shape %d: %v", card, shape, err)
			}
			if !reflect.DeepEqual(dec, bi) || !bytes.Equal(encodeBitmap(t, dec), enc) {
				t.Fatalf("card %d shape %d: the decoded index is not the built one", card, shape)
			}
			nWords := (n + 63) / 64
			eq := make([]uint64, bi.card*nWords)
			for row, v := range vals {
				eq[int(v-bi.min)*nWords+row/64] |= 1 << uint(row%64)
			}
			if !slices.Equal(wire.NewReaderBytes(enc[3*8:]).U64s(), eq) {
				t.Fatalf("card %d shape %d: encoded bitmaps are not one per value", card, shape)
			}
			for lo := int64(-9); lo <= int64(card)-5; lo++ {
				for hi := int64(-9); hi <= int64(card)-5; hi++ {
					checkEveryBlock(t, bi, vals, lo, hi, BlockBitmap{rng.Uint64(), rng.Uint64()})
				}
			}
		}
	}
}

// FuzzBitmapAndBlock draws a domain of 1 to 128 values at a fuzzer-chosen
// base, a column of up to six stripes over it — i.i.d., drifting, or
// constant and two-value stripes — two ranges, one around the domain and
// one around the domain of a chosen stripe (inside it, straddling it,
// outside it or inverted), and a selection, and checks AndBlock against the
// per-row definition in every block, with the range reused block after
// block and planned for each block alone.
func FuzzBitmapAndBlock(f *testing.F) {
	f.Add(uint8(0), uint8(10), uint16(3*BlockSize+70), int64(1), int32(-4), uint8(2), int8(0), int8(4), ^uint64(0), ^uint64(0))
	f.Add(uint8(0), uint8(0), uint16(1), int64(2), int32(0), uint8(0), int8(-1), int8(1), ^uint64(0), uint64(0))
	f.Add(uint8(0), uint8(49), uint16(2*BlockSize), int64(3), int32(1<<20), uint8(1), int8(30), int8(60), uint64(0x5555), uint64(1<<63))
	f.Add(uint8(0), uint8(99), uint16(BlockSize+5), int64(4), int32(-9), uint8(1), int8(100), int8(-3), ^uint64(0), ^uint64(0))
	f.Add(uint8(1), uint8(60), uint16(5*stripeRows+77), int64(5), int32(-30), uint8(9), int8(1), int8(3), ^uint64(0), ^uint64(0))
	f.Add(uint8(1), uint8(127), uint16(6*stripeRows-1), int64(6), int32(0), uint8(20), int8(-2), int8(2), ^uint64(0), uint64(0xf0f0))
	f.Add(uint8(2), uint8(1), uint16(3*stripeRows+64), int64(7), int32(5), uint8(12), int8(0), int8(0), ^uint64(0), ^uint64(0))
	f.Add(uint8(2), uint8(30), uint16(4*stripeRows+3), int64(8), int32(-1), uint8(16), int8(1), int8(-1), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, shape, cardB uint8, nB uint16, seed int64, base int32, blockB uint8, loOff, hiOff int8, s0, s1 uint64) {
		card := int(cardB)%128 + 1
		n := int(nB)%(6*stripeRows) + 1
		vals := stripedValues(rand.New(rand.NewSource(seed)), shape, n, int64(base), card)
		c := newColumn(vals)
		bi := newBitmapIndex(c, 128)
		if bi == nil {
			t.Fatal("a domain of at most 128 values did not build")
		}
		sel := BlockBitmap{s0, s1}
		checkEveryBlock(t, bi, vals, int64(base)+int64(loOff), int64(base)+int64(hiOff), sel)
		mn, mx := c.stripeBounds(int(blockB) % c.NumBlocks() / stripeBlocks)
		checkEveryBlock(t, bi, vals, mn+int64(loOff%8), mx+int64(hiOff%8), sel)
	})
}
