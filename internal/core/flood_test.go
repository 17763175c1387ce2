package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// makeData builds an nRows x nDims table with mixed distributions.
func makeData(t testing.TB, nRows, nDims int, seed int64) (*colstore.Table, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]int64, nDims)
	names := make([]string, nDims)
	for d := range data {
		data[d] = make([]int64, nRows)
		names[d] = string(rune('a' + d))
		for i := range data[d] {
			switch d % 3 {
			case 0: // uniform
				data[d][i] = rng.Int63n(1000)
			case 1: // skewed
				data[d][i] = int64(math.Exp(rng.NormFloat64() + 5))
			default: // clustered
				data[d][i] = rng.Int63n(10)*100 + rng.Int63n(8)
			}
		}
	}
	tbl, err := colstore.NewTable(names, data)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, data
}

func bruteCount(data [][]int64, q query.Query) int64 {
	var cnt int64
	n := len(data[0])
	point := make([]int64, len(data))
	for i := 0; i < n; i++ {
		for d := range data {
			point[d] = data[d][i]
		}
		if q.Matches(point) {
			cnt++
		}
	}
	return cnt
}

func bruteSum(data [][]int64, q query.Query, col int) int64 {
	var s int64
	n := len(data[0])
	point := make([]int64, len(data))
	for i := 0; i < n; i++ {
		for d := range data {
			point[d] = data[d][i]
		}
		if q.Matches(point) {
			s += data[col][i]
		}
	}
	return s
}

func randomQuery(rng *rand.Rand, data [][]int64, maxDims int) query.Query {
	q := query.NewQuery(len(data))
	nf := 1 + rng.Intn(maxDims)
	for k := 0; k < nf; k++ {
		d := rng.Intn(len(data))
		i := rng.Intn(len(data[d]))
		j := rng.Intn(len(data[d]))
		lo, hi := data[d][i], data[d][j]
		if lo > hi {
			lo, hi = hi, lo
		}
		q = q.WithRange(d, lo, hi)
	}
	return q
}

func layoutsUnderTest() []Layout {
	return []Layout{
		{GridDims: []int{0, 1}, GridCols: []int{8, 4}, SortDim: 2, Flatten: true},
		{GridDims: []int{0, 1}, GridCols: []int{8, 4}, SortDim: 2, Flatten: false},
		{GridDims: []int{2, 0}, GridCols: []int{5, 7}, SortDim: 3, Flatten: true},
		{GridDims: []int{0, 1, 2, 3}, GridCols: []int{3, 3, 3, 3}, SortDim: -1, Flatten: true}, // simple grid
		{GridDims: []int{1}, GridCols: []int{16}, SortDim: 0, Flatten: true},
		{GridDims: nil, GridCols: nil, SortDim: 0, Flatten: false},                      // pure clustered layout
		{GridDims: []int{0, 1, 3}, GridCols: []int{1, 6, 2}, SortDim: 2, Flatten: true}, // dropped dim via cols=1
	}
}

func TestFloodMatchesBruteForce(t *testing.T) {
	tbl, data := makeData(t, 3000, 4, 1)
	rng := rand.New(rand.NewSource(2))
	for li, layout := range layoutsUnderTest() {
		idx, err := Build(tbl, layout, Options{})
		if err != nil {
			t.Fatalf("layout %d: %v", li, err)
		}
		for trial := 0; trial < 120; trial++ {
			q := randomQuery(rng, data, 4)
			agg := query.NewCount()
			st := idx.Execute(q, agg)
			want := bruteCount(data, q)
			if agg.Result() != want {
				t.Fatalf("layout %d (%s): count = %d, want %d (query %+v)",
					li, layout, agg.Result(), want, q.Ranges)
			}
			if st.Matched != want {
				t.Fatalf("layout %d: stats.Matched = %d, want %d", li, st.Matched, want)
			}
			if st.Scanned < st.Matched {
				t.Fatalf("layout %d: scanned %d < matched %d", li, st.Scanned, st.Matched)
			}
		}
	}
}

func TestFloodSumAggregation(t *testing.T) {
	tbl, data := makeData(t, 2000, 4, 3)
	tbl.EnableAggregate(3)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{6, 6}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		q := randomQuery(rng, data, 3)
		agg := query.NewSum(3)
		idx.Execute(q, agg)
		if want := bruteSum(data, q, 3); agg.Result() != want {
			t.Fatalf("sum = %d, want %d", agg.Result(), want)
		}
	}
}

func TestFloodExactRangesReduceChecks(t *testing.T) {
	// A query covering a wide swath of grid dims with a sort-dim filter
	// should produce exact sub-ranges.
	tbl, data := makeData(t, 5000, 3, 5)
	layout := Layout{GridDims: []int{0}, GridCols: []int{16}, SortDim: 1, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery(3).WithRange(0, 0, 999).WithRange(1, 0, 1<<40)
	agg := query.NewCount()
	st := idx.Execute(q, agg)
	if want := bruteCount(data, q); agg.Result() != want {
		t.Fatalf("count = %d, want %d", agg.Result(), want)
	}
	if st.ExactMatched == 0 {
		t.Fatal("expected some exact sub-range matches")
	}
}

func TestFloodUnfilteredQueryScansEverything(t *testing.T) {
	tbl, _ := makeData(t, 1000, 3, 6)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{4, 4}, SortDim: 2, Flatten: true}
	idx, _ := Build(tbl, layout, Options{})
	agg := query.NewCount()
	st := idx.Execute(query.NewQuery(3), agg)
	if agg.Result() != 1000 || st.Matched != 1000 {
		t.Fatalf("unfiltered count = %d", agg.Result())
	}
	if st.ExactMatched != 1000 {
		t.Fatalf("unfiltered query should be fully exact, got %d", st.ExactMatched)
	}
}

func TestFloodEmptyAndInvertedQueries(t *testing.T) {
	tbl, _ := makeData(t, 500, 3, 7)
	layout := Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true}
	idx, _ := Build(tbl, layout, Options{})
	agg := query.NewCount()
	st := idx.Execute(query.NewQuery(3).WithRange(0, 100, 50), agg)
	if agg.Result() != 0 || st.Scanned != 0 {
		t.Fatal("inverted range should match nothing and scan nothing")
	}
	// Range entirely outside the data domain.
	agg.Reset()
	idx.Execute(query.NewQuery(3).WithRange(1, 1<<50, 1<<51), agg)
	if agg.Result() != 0 {
		t.Fatal("out-of-domain range should match nothing")
	}
}

func TestFloodLayoutValidation(t *testing.T) {
	tbl, _ := makeData(t, 100, 3, 8)
	bad := []Layout{
		{GridDims: []int{0, 0}, GridCols: []int{2, 2}, SortDim: 1},
		{GridDims: []int{0}, GridCols: []int{0}, SortDim: 1},
		{GridDims: []int{0}, GridCols: []int{2}, SortDim: 0},
		{GridDims: []int{5}, GridCols: []int{2}, SortDim: 1},
		{GridDims: []int{0}, GridCols: []int{2, 3}, SortDim: 1},
		{SortDim: -1},
		{GridDims: []int{0}, GridCols: []int{2}, SortDim: 9},
	}
	for i, l := range bad {
		if _, err := Build(tbl, l, Options{}); err == nil {
			t.Fatalf("layout %d should fail validation: %s", i, l)
		}
	}
}

func TestFloodCellTablePartition(t *testing.T) {
	// The cell table must partition [0, n): starts non-decreasing,
	// first = 0, last = n.
	tbl, _ := makeData(t, 4000, 4, 9)
	layout := Layout{GridDims: []int{0, 1, 3}, GridCols: []int{7, 5, 3}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.cellStart[0] != 0 || int(idx.cellStart[idx.numCells]) != 4000 {
		t.Fatalf("cell table endpoints: %d .. %d", idx.cellStart[0], idx.cellStart[idx.numCells])
	}
	for c := 0; c < idx.numCells; c++ {
		if idx.cellStart[c] > idx.cellStart[c+1] {
			t.Fatalf("cell table not monotone at %d", c)
		}
	}
	// Within every cell, rows are sorted by the sort dimension.
	for c := 0; c < idx.numCells; c++ {
		for r := int(idx.cellStart[c]) + 1; r < int(idx.cellStart[c+1]); r++ {
			if idx.t.Get(2, r-1) > idx.t.Get(2, r) {
				t.Fatalf("cell %d not sorted by sort dim at row %d", c, r)
			}
		}
	}
}

func TestFloodStatsTimings(t *testing.T) {
	tbl, data := makeData(t, 3000, 3, 10)
	layout := Layout{GridDims: []int{0}, GridCols: []int{8}, SortDim: 1, Flatten: true}
	idx, _ := Build(tbl, layout, Options{})
	q := query.NewQuery(3).WithRange(0, 0, 500).WithRange(1, 0, 1000)
	st := idx.Execute(q, query.NewCount())
	if st.IndexTime != st.ProjectTime+st.RefineTime {
		t.Fatal("IndexTime must equal projection + refinement")
	}
	if st.ProjectTime+st.RefineTime+st.ScanTime != st.Total {
		t.Fatalf("project %v + refine %v + scan %v != total %v: the phases must split Total exactly",
			st.ProjectTime, st.RefineTime, st.ScanTime, st.Total)
	}
	if st.ProjectTime < 0 || st.RefineTime < 0 || st.ScanTime < 0 {
		t.Fatalf("negative phase time: %+v", st)
	}
	if st.CellsVisited == 0 || st.RangesRefined == 0 {
		t.Fatalf("expected cells visited and ranges refined, got %+v", st)
	}
	_ = data

	// The early return for an empty query times itself too: no phase ran,
	// but the call took time. Two clock reads a few ns apart can coincide,
	// so one positive Total in a hundred calls is what is asserted.
	empty := query.NewQuery(3).WithRange(0, 10, 5)
	timed := false
	for i := 0; i < 100 && !timed; i++ {
		st := idx.Execute(empty, query.NewCount())
		if st.ProjectTime != 0 || st.RefineTime != 0 || st.ScanTime != 0 || st.Total < 0 {
			t.Fatalf("empty query: %+v, want only Total set", st)
		}
		timed = st.Total > 0
	}
	if !timed {
		t.Fatal("the empty-query early return left Total zero on every call")
	}
}

func TestFloodSizeBytes(t *testing.T) {
	tbl, _ := makeData(t, 2000, 3, 11)
	small, _ := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{2}, SortDim: 1, Flatten: true}, Options{})
	big, _ := Build(tbl, Layout{GridDims: []int{0, 2}, GridCols: []int{50, 20}, SortDim: 1, Flatten: true}, Options{})
	if small.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("more cells should cost more metadata: %d <= %d", big.SizeBytes(), small.SizeBytes())
	}
}

func TestFloodEmptyTable(t *testing.T) {
	tbl, err := colstore.NewTable([]string{"a", "b"}, [][]int64{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	// Equi-width bucketing must not choke on an empty column either.
	for _, flatten := range []bool{true, false} {
		idx, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: flatten}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		agg := query.NewCount()
		idx.Execute(query.NewQuery(2).WithRange(0, 0, 10), agg)
		if agg.Result() != 0 {
			t.Fatalf("flatten=%v: empty table should match nothing", flatten)
		}
	}
}

func TestFloodCellStatsReasonable(t *testing.T) {
	tbl, _ := makeData(t, 10000, 3, 12)
	idx, _ := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{10, 10}, SortDim: 2, Flatten: true}, Options{})
	avg, med, p99 := idx.CellSizeStats()
	if avg <= 0 || med <= 0 || p99 < med {
		t.Fatalf("cell stats look wrong: avg=%f med=%f p99=%f", avg, med, p99)
	}
	if idx.NonEmptyCells() == 0 || idx.NonEmptyCells() > idx.NumCells() {
		t.Fatalf("NonEmptyCells = %d of %d", idx.NonEmptyCells(), idx.NumCells())
	}
}

func TestFlatteningBalancesSkewedCells(t *testing.T) {
	// On heavily skewed data, flattened layouts should spread points far
	// more evenly than equi-width layouts (§5.1).
	rng := rand.New(rand.NewSource(13))
	n := 20000
	skew := make([]int64, n)
	other := make([]int64, n)
	for i := range skew {
		// Log-normal with a large offset so values stay distinct: heavy
		// right tail but no single dominating duplicate.
		skew[i] = int64(math.Exp(rng.NormFloat64()*2 + 10))
		other[i] = rng.Int63n(100)
	}
	tbl := colstore.MustNewTable([]string{"s", "o"}, [][]int64{skew, other})
	flat, _ := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{20}, SortDim: 1, Flatten: true}, Options{})
	raw, _ := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{20}, SortDim: 1, Flatten: false}, Options{})
	maxCell := func(f *Flood) int {
		m := 0
		for c := 0; c < f.NumCells(); c++ {
			if s, e := f.CellBounds(c); e-s > m {
				m = e - s
			}
		}
		return m
	}
	flatMax, rawMax := maxCell(flat), maxCell(raw)
	if flatMax*2 >= rawMax {
		t.Fatalf("flattening should cap the largest cell: flattened max %d vs raw max %d", flatMax, rawMax)
	}
}

// TestBuildFromCountsCacheIsTheSameIndex builds several layouts from one
// Source, which counts each flattened dimension's values for the first
// layout that grids it and cuts the rest from those counts: each index must
// be the one a build of its own makes, whether a dimension was counted by a
// histogram (a narrow column) or by sorting (a wide one).
func TestBuildFromCountsCacheIsTheSameIndex(t *testing.T) {
	tbl, _ := makeData(t, 20000, 4, 91)
	tbl.EnableAggregate(3)
	src := NewSource(tbl, Options{})
	for _, layout := range []Layout{
		{GridDims: []int{2, 0}, GridCols: []int{9, 14}, SortDim: 1, Flatten: true},
		{GridDims: []int{0, 2, 3}, GridCols: []int{3, 40, 2}, SortDim: 1, Flatten: true}, // 0 and 2 handed over, 3 counted now
		{GridDims: []int{1, 3}, GridCols: []int{22, 7}, SortDim: 2, Flatten: true},       // wide 1 counted now
		{GridDims: []int{1, 2}, GridCols: []int{5, 5}, SortDim: 0, Flatten: false},
	} {
		want, err := Build(tbl, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := src.Build(layout)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := want.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%v: the index built from the shared source differs from the index built alone", layout)
		}
		if !got.Table().HasAggregate(3) {
			t.Fatalf("%v: the shared source dropped the aggregate column", layout)
		}
	}
	wide := func(dim int) bool {
		vals := src.counted[dim].vals
		return !narrow(vals[0], vals[len(vals)-1], tbl.NumRows())
	}
	if wide(0) || !wide(1) {
		t.Fatal("the cache should hold dimension 0 counted by histogram and dimension 1 by sorting")
	}
}

// TestBuildRefusesOversizedGrids: a grid whose cell count overflows the int32
// cell ids, wraps the product, or is simply out of all proportion to the rows
// under it is an error from Build — it used to be 8 GB of cell table and a
// dead process, or silently wrapped cell numbers.
func TestBuildRefusesOversizedGrids(t *testing.T) {
	tbl, err := colstore.NewTable([]string{"a", "b", "c"}, [][]int64{{1, 2, 3, 4}, {4, 3, 2, 1}, {0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cols     []int
		validate bool // refused by Layout.Validate already, whatever the table
	}{
		{[]int{65536, 65536}, true},     // 2³²
		{[]int{1 << 20, 1 << 11}, true}, // 2³¹: one past the largest cell id
		{[]int{46341, 46341}, true},     // just over 2³¹
		{[]int{1 << 32, 1 << 32}, true}, // wraps to 0
		{[]int{1 << 62, 4}, true},       // wraps negative, then to 0
		{[]int{3000, 3000}, false},      // 9M cells over four rows
	} {
		l := Layout{GridDims: []int{0, 1}, GridCols: tc.cols, SortDim: 2, Flatten: true}
		if err := l.Validate(3); (err != nil) != tc.validate {
			t.Errorf("grid %v: Validate returned %v", tc.cols, err)
		}
		if _, err := Build(tbl, l, Options{}); err == nil {
			t.Errorf("grid %v over 4 rows was built", tc.cols)
		}
	}
	// The bound leaves room: a million cells over four rows is odd, not hostile.
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{1024, 1024}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := query.NewCount()
	idx.Execute(query.NewQuery(3).WithRange(0, 2, 3), agg)
	if agg.Result() != 2 {
		t.Fatalf("the 1024×1024 grid counted %d rows in [2, 3], want 2", agg.Result())
	}
}

// TestBuildDecodesEachColumnOnce counts whole-column decodes per build. Over
// a compressed table the sort column and every column outside the grid are
// decoded once — the sort values travel with the counting scatter, and
// aggregates and bitmap indexes come from the gathered values — and a grid
// column twice, once to flatten and bucket it and once to gather it, because
// a worker keeps two raw columns, not the grid. A source that already holds
// raw columns (NewSource, a rebuild's merge) decodes nothing per build.
func TestBuildDecodesEachColumnOnce(t *testing.T) {
	tbl, _ := makeData(t, 5000, 6, 93)
	tbl.EnableAggregate(4)
	for _, layout := range []Layout{
		{GridDims: []int{2, 0}, GridCols: []int{9, 14}, SortDim: 1, Flatten: true},
		{GridDims: []int{5, 3}, GridCols: []int{4, 4}, SortDim: 0, Flatten: false},
		{GridDims: []int{1}, GridCols: []int{7}, SortDim: -1, Flatten: true},
	} {
		src := tableSource(tbl, Options{})
		if _, err := src.Build(layout); err != nil {
			t.Fatal(err)
		}
		for c, got := range src.decodes {
			want := 1
			if slices.Contains(layout.GridDims, c) {
				want = 2
			}
			if got != want {
				t.Errorf("%v: column %d decoded %d times, want %d", layout, c, got, want)
			}
		}
	}
	shared := NewSource(tbl, Options{})
	for i := 0; i < 3; i++ {
		if _, err := shared.Build(Layout{GridDims: []int{2, 0}, GridCols: []int{9 + i, 14}, SortDim: 1, Flatten: true}); err != nil {
			t.Fatal(err)
		}
	}
	for c, got := range shared.decodes {
		if got != 1 {
			t.Errorf("shared source: column %d decoded %d times over three builds, want 1", c, got)
		}
	}
}
