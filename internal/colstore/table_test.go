package colstore

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flood/internal/wire"
)

func testTable(t *testing.T, n int) (*Table, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := make([][]int64, 3)
	for c := range data {
		data[c] = make([]int64, n)
		for i := range data[c] {
			data[c][i] = rng.Int63n(1000) - 500
		}
	}
	tbl, err := NewTable([]string{"a", "b", "c"}, data)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, data
}

func TestTableBasics(t *testing.T) {
	tbl, data := testTable(t, 500)
	if tbl.NumRows() != 500 || tbl.NumCols() != 3 {
		t.Fatalf("shape = (%d, %d), want (500, 3)", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.ColumnIndex("b") != 1 || tbl.ColumnIndex("zzz") != -1 {
		t.Fatalf("ColumnIndex lookup broken")
	}
	for c := range data {
		for r := range data[c] {
			if tbl.Get(c, r) != data[c][r] {
				t.Fatalf("Get(%d,%d) = %d, want %d", c, r, tbl.Get(c, r), data[c][r])
			}
		}
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable([]string{"a"}, [][]int64{{1}, {2}}); err == nil {
		t.Fatal("want error for mismatched names/columns")
	}
	if _, err := NewTable([]string{"a", "b"}, [][]int64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged columns")
	}
	if _, err := NewTable(nil, nil); err == nil {
		t.Fatal("want error for empty table")
	}
}

func TestTableReorder(t *testing.T) {
	tbl, data := testTable(t, 300)
	perm := rand.New(rand.NewSource(3)).Perm(300)
	rt := tbl.Reorder(perm)
	for c := 0; c < 3; c++ {
		for r := 0; r < 300; r++ {
			if rt.Get(c, r) != data[c][perm[r]] {
				t.Fatalf("reordered Get(%d,%d) = %d, want %d", c, r, rt.Get(c, r), data[c][perm[r]])
			}
		}
	}
}

func TestTablePrefixSum(t *testing.T) {
	tbl, data := testTable(t, 400)
	tbl.EnableAggregate(2)
	if !tbl.HasAggregate(2) || tbl.HasAggregate(0) {
		t.Fatal("aggregate flags wrong")
	}
	for _, rg := range [][2]int{{0, 0}, {0, 400}, {17, 123}, {399, 400}} {
		var want int64
		for i := rg[0]; i < rg[1]; i++ {
			want += data[2][i]
		}
		if got := tbl.PrefixSum(2, rg[0], rg[1]); got != want {
			t.Fatalf("PrefixSum(2, %d, %d) = %d, want %d", rg[0], rg[1], got, want)
		}
	}
}

func TestTableReorderKeepsAggregates(t *testing.T) {
	tbl, data := testTable(t, 200)
	tbl.EnableAggregate(1)
	perm := rand.New(rand.NewSource(5)).Perm(200)
	rt := tbl.Reorder(perm)
	if !rt.HasAggregate(1) {
		t.Fatal("reorder dropped aggregate column")
	}
	var want int64
	for r := 10; r < 50; r++ {
		want += data[1][perm[r]]
	}
	if got := rt.PrefixSum(1, 10, 50); got != want {
		t.Fatalf("PrefixSum after reorder = %d, want %d", got, want)
	}
}

func TestTableSizeAccounting(t *testing.T) {
	tbl, _ := testTable(t, 1000)
	before := tbl.SizeBytes()
	tbl.EnableAggregate(0)
	if tbl.SizeBytes() <= before {
		t.Fatal("aggregate column not accounted in SizeBytes")
	}
	if tbl.UncompressedSizeBytes() != 3*1000*8 {
		t.Fatalf("UncompressedSizeBytes = %d", tbl.UncompressedSizeBytes())
	}
}

// TestAppendBlocksMatchesNewTable grows a table one block at a time, at every
// delta width 0–64, and holds each version to NewTable over the same rows in
// Get, DecodeBlock, BlockBounds and CompareBlock. Every earlier version must
// still read exactly its own rows after the later appends.
func TestAppendBlocksMatchesNewTable(t *testing.T) {
	const blocks = 4
	rng := rand.New(rand.NewSource(35))
	names := []string{"a", "b"}
	data := make([][]int64, len(names))
	for c := range data {
		for b := 0; b < blocks*65; b++ {
			w := b % 65 // block b's deltas span w bits
			base := rng.Int63() - 1<<62
			for i := 0; i < BlockSize; i++ {
				var d uint64
				if w > 0 {
					d = rng.Uint64() & mask(uint(w))
				}
				data[c] = append(data[c], base+int64(d))
			}
		}
	}
	check := func(got *Table, n int) {
		t.Helper()
		want := MustNewTable(names, [][]int64{data[0][:n], data[1][:n]})
		if got.NumRows() != n {
			t.Fatalf("grown table has %d rows, want %d", got.NumRows(), n)
		}
		var gb, wb [BlockSize]int64
		for c := range names {
			gc, wc := got.Column(c), want.Column(c)
			for b := 0; b < wc.NumBlocks(); b++ {
				gmin, gmax := gc.BlockBounds(b)
				wmin, wmax := wc.BlockBounds(b)
				if gmin != wmin || gmax != wmax {
					t.Fatalf("n=%d col %d block %d bounds (%d,%d), want (%d,%d)", n, c, b, gmin, gmax, wmin, wmax)
				}
				if gc.DecodeBlock(b, gb[:]) != wc.DecodeBlock(b, wb[:]) || gb != wb {
					t.Fatalf("n=%d col %d block %d decodes differently", n, c, b)
				}
				rmin := uint64(wmin) + uint64(wmax-wmin)/3
				span := uint64(wmax-wmin) / 2
				gs, ws := BlockBitmap{^uint64(0), ^uint64(0)}, BlockBitmap{^uint64(0), ^uint64(0)}
				gc.CompareBlock(b, &gs, rmin, span)
				wc.CompareBlock(b, &ws, rmin, span)
				if gs != ws {
					t.Fatalf("n=%d col %d block %d CompareBlock %x, want %x", n, c, b, gs, ws)
				}
			}
			for r := 0; r < n; r += 37 {
				if got.Get(c, r) != data[c][r] {
					t.Fatalf("n=%d Get(%d,%d) = %d, want %d", n, c, r, got.Get(c, r), data[c][r])
				}
			}
		}
	}
	versions := []*Table{MustNewTable(names, make([][]int64, len(names)))}
	for n := BlockSize; n <= len(data[0]); n += BlockSize {
		prev := versions[len(versions)-1]
		next := prev.AppendBlocks([][]int64{data[0][n-BlockSize : n], data[1][n-BlockSize : n]})
		versions = append(versions, next)
		check(next, n)
	}
	for i, v := range versions {
		check(v, i*BlockSize)
	}
	seen := map[uint8]bool{}
	for _, w := range versions[len(versions)-1].Column(0).widths {
		seen[w] = true
	}
	if len(seen) != 65 {
		t.Fatalf("blocks cover %d of the 65 delta widths", len(seen))
	}
	// Several blocks at once land where one-at-a-time appends do.
	check(versions[1].AppendBlocks([][]int64{data[0][BlockSize : 9*BlockSize], data[1][BlockSize : 9*BlockSize]}), 9*BlockSize)
}

func TestAppendBlocksRefusesMisuse(t *testing.T) {
	tbl, _ := testTable(t, 2*BlockSize)
	whole := [][]int64{make([]int64, BlockSize), make([]int64, BlockSize), make([]int64, BlockSize)}
	partial, _ := testTable(t, BlockSize+1)
	summed, _ := testTable(t, BlockSize)
	summed.EnableAggregate(1)
	for name, f := range map[string]func(){
		"partial rows":     func() { tbl.AppendBlocks([][]int64{{1}, {2}, {3}}) },
		"off the boundary": func() { partial.AppendBlocks(whole) },
		"aggregate":        func() { summed.AppendBlocks(whole) },
		"column count":     func() { tbl.AppendBlocks(whole[:2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AppendBlocks did not panic", name)
				}
			}()
			f()
		}()
	}
}

// encodeTables writes tables one after another, as EncodeSealed does.
func encodeTables(t *testing.T, tables ...*Table) []byte {
	return encodeBytes(t, func(w *wire.Writer) {
		for _, tbl := range tables {
			tbl.Encode(w)
		}
	})
}

// TestSealedRoundTrip: a table's whole blocks and the partial block past
// them, written by EncodeSealed, read back as the rows they hold, on both
// sides of every block boundary.
func TestSealedRoundTrip(t *testing.T) {
	_, data := testTable(t, 3*BlockSize)
	names := []string{"a", "b", "c"}
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize - 1} {
		whole := n - n%BlockSize
		head, tail := make([][]int64, len(data)), make([][]int64, len(data))
		for c := range data {
			head[c], tail[c] = data[c][:whole], data[c][whole:n]
		}
		enc := encodeBytes(t, func(w *wire.Writer) { MustNewTable(names, head).EncodeSealed(w, tail) })
		got, err := DecodeSealed(wire.NewReaderBytes(enc), len(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for c := range data {
			if !slices.Equal(got[c], data[c][:n]) {
				t.Fatalf("n=%d: column %d reads back %v", n, c, got[c])
			}
		}
	}
}

// TestSealedRefusesMisuse: EncodeSealed panics rather than write a first
// table off a block boundary or a partial block of BlockSize rows, and
// DecodeSealed refuses either shape, a column count other than the caller's
// and a cut payload with wire.ErrChecksum.
func TestSealedRefusesMisuse(t *testing.T) {
	block, _ := testTable(t, BlockSize)
	short, _ := testTable(t, BlockSize-1)
	empty, _ := testTable(t, 0)
	for name, f := range map[string]func(){
		"partial first table": func() {
			encodeBytes(t, func(w *wire.Writer) { short.EncodeSealed(w, [][]int64{{}, {}, {}}) })
		},
		"whole-block tail": func() {
			tail := make([][]int64, 3)
			for c := range tail {
				tail[c] = make([]int64, BlockSize)
			}
			encodeBytes(t, func(w *wire.Writer) { block.EncodeSealed(w, tail) })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EncodeSealed did not panic", name)
				}
			}()
			f()
		}()
	}
	valid := encodeTables(t, block, short)
	for name, tc := range map[string]struct {
		payload []byte
		cols    int
	}{
		"partial first table": {encodeTables(t, short, empty), 3},
		"whole-block tail":    {encodeTables(t, block, block), 3},
		"column count":        {valid, 2},
		"cut payload":         {valid[:len(valid)/2], 3},
		"one table":           {encodeTables(t, block), 3},
	} {
		if _, err := DecodeSealed(wire.NewReaderBytes(tc.payload), tc.cols); !errors.Is(err, wire.ErrChecksum) {
			t.Errorf("%s: DecodeSealed = %v, want an ErrChecksum error", name, err)
		}
	}
	if _, err := DecodeSealed(wire.NewReaderBytes(valid), 3); err != nil {
		t.Fatalf("valid payload: %v", err)
	}
}

// TestDecodeTableRefusesBlockBelowItsMinimum encodes tables whose one block
// is structurally sound but does not decode to its stored minimum: a minimum
// raised so that a delta wraps past the top of int64 (every value would then
// lie outside the zone map, and a domain read from the zone maps would index
// a bitmap or a build's value table out of range), and packed words with no
// zero delta. DecodeTable must refuse both, and accept the untouched table.
func TestDecodeTableRefusesBlockBelowItsMinimum(t *testing.T) {
	vals := []int64{math.MaxInt64 - 1, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64}
	for _, tc := range []struct {
		name   string
		damage func(c *Column)
		ok     bool
	}{
		{"untouched", func(*Column) {}, true},
		{"a delta wraps", func(c *Column) { c.mins[0] = math.MaxInt64 }, false},
		{"no zero delta", func(c *Column) { c.words[0] |= 0b0101 }, false},
	} {
		tbl := MustNewTable([]string{"v"}, [][]int64{slices.Clone(vals)})
		tc.damage(tbl.cols[0])
		got, err := DecodeTable(wire.NewReaderBytes(encodeBytes(t, tbl.Encode)))
		if tc.ok {
			if err != nil || !slices.Equal(got.Raw(0), vals) {
				t.Errorf("%s: decoded %v, %v; want %v", tc.name, got, err, vals)
			}
		} else if err == nil || !strings.Contains(err.Error(), "smallest value") {
			t.Errorf("%s: DecodeTable returned %v, want a refusal naming the block's smallest value", tc.name, err)
		}
	}
}
