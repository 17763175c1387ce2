package query

import (
	"math/rand"
	"testing"

	"flood/internal/colstore"
)

// aggTable builds a single-column table with mixed magnitudes so block
// widths vary and the zone-map fast paths get exercised.
func aggTable(t *testing.T, n int, seed int64) (*colstore.Table, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		switch i % 3 {
		case 0:
			vals[i] = rng.Int63n(100)
		case 1:
			vals[i] = -rng.Int63n(1 << 30)
		default:
			vals[i] = rng.Int63n(1 << 50)
		}
	}
	return colstore.MustNewTable([]string{"v"}, [][]int64{vals}), vals
}

// TestMinMaxExactRangeMatchesPerRow pins the block-decoded AddExactRange
// rewrite: for arbitrary (start, end) — block-aligned and not — the result
// must equal the naive per-row fold.
func TestMinMaxExactRangeMatchesPerRow(t *testing.T) {
	tbl, vals := aggTable(t, 10*colstore.BlockSize+37, 91)
	rng := rand.New(rand.NewSource(92))
	spans := [][2]int{
		{0, len(vals)},                               // whole column incl. partial tail block
		{0, colstore.BlockSize},                      // exactly one block
		{colstore.BlockSize, 2 * colstore.BlockSize}, // aligned interior block
		{17, 23},                        // inside one block
		{100, 3*colstore.BlockSize + 5}, // ragged both ends
		{len(vals) - 5, len(vals)},      // tail of partial block
		{4 * colstore.BlockSize, 4 * colstore.BlockSize}, // empty
	}
	for i := 0; i < 40; i++ {
		a, b := rng.Intn(len(vals)+1), rng.Intn(len(vals)+1)
		if a > b {
			a, b = b, a
		}
		spans = append(spans, [2]int{a, b})
	}
	for _, sp := range spans {
		start, end := sp[0], sp[1]
		wantMin, wantMax := int64(PosInf), int64(NegInf)
		for i := start; i < end; i++ {
			if vals[i] < wantMin {
				wantMin = vals[i]
			}
			if vals[i] > wantMax {
				wantMax = vals[i]
			}
		}
		mn, mx := NewMin(0), NewMax(0)
		mn.AddExactRange(tbl, start, end)
		mx.AddExactRange(tbl, start, end)
		if mn.Result() != wantMin {
			t.Errorf("Min[%d, %d) = %d, want %d", start, end, mn.Result(), wantMin)
		}
		if mx.Result() != wantMax {
			t.Errorf("Max[%d, %d) = %d, want %d", start, end, mx.Result(), wantMax)
		}
	}
}

func TestMaxViaScannerMatchesBrute(t *testing.T) {
	tbl, vals := aggTable(t, 5000, 93)
	sc := newScanner(tbl)
	q := NewQuery(1).WithRange(0, 0, 1<<40)
	agg := NewMax(0)
	sc.ScanRange(q, []int{0}, 0, len(vals), agg)
	want := int64(NegInf)
	for _, v := range vals {
		if v >= 0 && v <= 1<<40 && v > want {
			want = v
		}
	}
	if agg.Result() != want {
		t.Fatalf("Max via scan = %d, want %d", agg.Result(), want)
	}
}

func TestMinMaxMergeAndEmptyRanges(t *testing.T) {
	tbl, _ := aggTable(t, 100, 94)
	// Empty exact range leaves the aggregator untouched.
	mx := NewMax(0)
	mx.AddExactRange(tbl, 7, 7)
	if mx.Result() != NegInf {
		t.Fatal("empty range must not touch Max")
	}
	// Merging an empty clone is a no-op; merging a lower partial keeps max.
	a, b := NewMax(0), NewMax(0)
	addRow(a, tbl, 0)
	a.Merge(b)
	want := a.Result()
	addRow(b, tbl, 1)
	if b.Result() > want {
		want = b.Result()
	}
	a.Merge(b)
	if a.Result() != want {
		t.Fatalf("merged max = %d, want %d", a.Result(), want)
	}
	// Min: merging a non-empty into an empty adopts it.
	m1, m2 := NewMin(0), NewMin(0)
	addRow(m2, tbl, 3)
	m1.Merge(m2)
	if m1.Result() != m2.Result() {
		t.Fatalf("empty.Merge(partial) = %d, want %d", m1.Result(), m2.Result())
	}
	// Reset restores the identity element.
	addRow(mx, tbl, 0)
	mx.Reset()
	if mx.Result() != NegInf {
		t.Fatal("Reset must restore NegInf")
	}
}

// addRow delivers one row the way the scan stage delivers a block's
// survivors: as a selection bitmap, here with a single bit set.
func addRow(agg Aggregator, t *colstore.Table, row int) {
	var sel colstore.BlockBitmap
	sel[row%colstore.BlockSize/64] = 1 << uint(row%64)
	agg.AddBlock(t, row/colstore.BlockSize, &sel)
}
