package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// regressionTable builds a fully deterministic 4-dim table: dims 0 and 1
// take values c*4+j for grid coordinate c in 0..3 (equi-width 4-column
// bucketing maps value v to column v/4 exactly), dim 2 counts 0..7 within
// each cell (the sort dimension), and dim 3 mirrors dim 2 (a residual dim).
// Every (c0, c1) cell holds exactly 8 rows.
func regressionTable(t *testing.T) *colstore.Table {
	t.Helper()
	var d0, d1, d2, d3 []int64
	for c0 := int64(0); c0 < 4; c0++ {
		for c1 := int64(0); c1 < 4; c1++ {
			for i := int64(0); i < 8; i++ {
				d0 = append(d0, c0*4+i%4)
				d1 = append(d1, c1*4+i%4)
				d2 = append(d2, i)
				d3 = append(d3, i)
			}
		}
	}
	return colstore.MustNewTable([]string{"a", "b", "c", "d"}, [][]int64{d0, d1, d2, d3})
}

// TestProjectStatsAfterCoalescing pins the projection stats introduced with
// range coalescing: CellsVisited counts only non-empty intersected cells,
// and ScanRanges reflects physically merged runs of cells.
func TestProjectStatsAfterCoalescing(t *testing.T) {
	tbl := regressionTable(t)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{4, 4}, SortDim: 2, Flatten: false}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// No sort-dim filter: coalescing applies. The rectangle spans all 4
	// dim-0 columns and dim-1 columns 1..2, i.e. cells {c0*4+c1 : c1 in
	// {1,2}} — 8 non-empty cells. Each dim-0 row of the rectangle is a
	// physically contiguous pair of cells with an identical residual mask,
	// so the 8 cells coalesce into 4 scan ranges.
	q := query.NewQuery(4).WithRange(0, 0, 15).WithRange(1, 4, 11)
	agg := query.NewCount()
	st := idx.Execute(q, agg)
	if st.CellsVisited != 8 {
		t.Errorf("CellsVisited = %d, want 8 (non-empty cells only)", st.CellsVisited)
	}
	if st.ScanRanges != 4 {
		t.Errorf("ScanRanges = %d, want 4 (coalesced)", st.ScanRanges)
	}
	if st.RangesRefined != 0 {
		t.Errorf("RangesRefined = %d, want 0 (no sort filter)", st.RangesRefined)
	}
	if agg.Result() != 64 || st.Matched != 64 {
		t.Errorf("matched %d rows (agg %d), want 64", st.Matched, agg.Result())
	}

	// With a sort-dim filter, refinement needs per-cell ranges, so
	// coalescing is disabled: 8 cells -> 8 ranges, all refined. Each cell
	// keeps its 4 rows with dim2 in [2,5].
	q = q.WithRange(2, 2, 5)
	agg.Reset()
	st = idx.Execute(q, agg)
	if st.CellsVisited != 8 || st.ScanRanges != 8 || st.RangesRefined != 8 {
		t.Errorf("refined query: CellsVisited=%d ScanRanges=%d RangesRefined=%d, want 8/8/8",
			st.CellsVisited, st.ScanRanges, st.RangesRefined)
	}
	if agg.Result() != 32 {
		t.Errorf("refined query matched %d, want 32", agg.Result())
	}
}

// TestProjectCountsOnlyNonEmptyCells pins the empty-cell accounting fix: a
// sparse table whose points all sit on the grid diagonal must report 4
// visited cells for a rectangle covering all 16, and an unfiltered query
// over it coalesces the whole table into a single exact scan range.
func TestProjectCountsOnlyNonEmptyCells(t *testing.T) {
	var d0, d1, d2 []int64
	for c := int64(0); c < 4; c++ {
		for i := int64(0); i < 5; i++ {
			d0 = append(d0, c*4)
			d1 = append(d1, c*4)
			d2 = append(d2, i)
		}
	}
	tbl := colstore.MustNewTable([]string{"a", "b", "c"}, [][]int64{d0, d1, d2})
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{4, 4}, SortDim: 2, Flatten: false}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg := query.NewCount()
	st := idx.Execute(query.NewQuery(3).WithRange(0, 0, 15).WithRange(1, 0, 15), agg)
	if st.CellsVisited != 4 {
		t.Errorf("CellsVisited = %d, want 4 (diagonal cells only)", st.CellsVisited)
	}
	if agg.Result() != 20 {
		t.Errorf("matched %d, want 20", agg.Result())
	}

	// Unfiltered query: every cell interior, empty cells between occupied
	// ones leave no physical gap, so one exact range covers the table.
	agg.Reset()
	st = idx.Execute(query.NewQuery(3), agg)
	if st.CellsVisited != 4 || st.ScanRanges != 1 {
		t.Errorf("unfiltered: CellsVisited=%d ScanRanges=%d, want 4/1", st.CellsVisited, st.ScanRanges)
	}
	if st.ExactMatched != 20 || agg.Result() != 20 {
		t.Errorf("unfiltered: ExactMatched=%d agg=%d, want 20/20", st.ExactMatched, agg.Result())
	}
}

// TestExecuteSteadyStateZeroAllocs asserts the tentpole property: once the
// scanner pool and scratch buffers are warm, Execute performs zero heap
// allocations per query. GC is paused so sync.Pool contents survive the
// measurement window.
func TestExecuteSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside Execute")
	}
	tbl, _ := makeData(t, 20000, 4, 77)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{8, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []query.Query{
		query.NewQuery(4).WithRange(0, 0, 400).WithRange(2, 0, 1000),
		query.NewQuery(4).WithRange(0, 100, 900).WithRange(1, 0, 1<<40).WithRange(3, 0, 500),
		query.NewQuery(4).WithRange(3, 10, 200),
		query.NewQuery(4),
	}
	agg := query.NewCount()
	for _, q := range queries {
		idx.Execute(q, agg) // warm pools and decode buffers
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for qi, q := range queries {
		allocs := testing.AllocsPerRun(50, func() {
			agg.Reset()
			idx.Execute(q, agg)
		})
		if allocs != 0 {
			t.Errorf("query %d: %.1f allocs per Execute, want 0", qi, allocs)
		}
	}
}

// TestParallelAlternatingAggregatesZeroAllocs pins the worker-clone pool: a
// caller that rotates COUNT, SUM and MAX over the morsel engine finds a
// pooled clone of the right kind on every query. A single pool shared by all
// kinds handed SUM the clone COUNT had just returned, which was dropped and
// replaced by a fresh allocation per worker per query.
func TestParallelAlternatingAggregatesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside Execute")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tbl, _ := makeData(t, 40000, 4, 78)
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{8, 8}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.parallelCutover = 1
	q := query.NewQuery(4).WithRange(0, 100, 900).WithRange(3, 0, 500)
	aggs := []query.Aggregator{query.NewCount(), query.NewSum(3), query.NewMax(3), query.NewSum(1)}
	rotate := func() {
		for _, agg := range aggs {
			agg.Reset()
			idx.Run(nil, q, agg, 2) // workers 2: every query takes the morsel engine
		}
	}
	rotate() // warm the pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(50, rotate); allocs != 0 {
		t.Errorf("%.1f allocs per rotation of %d aggregates, want 0", allocs, len(aggs))
	}
}

// TestParallelRefineZeroAllocs pins the pooled refinement job: a query over
// enough cells that its refinement probes fan out over the worker pool
// allocates nothing for the fan-out. A closure, a cursor and a WaitGroup per
// query used to. testing.AllocsPerRun pins GOMAXPROCS to 1, where refinement
// never fans out, so the mallocs are counted here, process-wide, over enough
// queries that a stray runtime allocation rounds away.
func TestParallelRefineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside Execute")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tbl, _ := makeData(t, 40000, 4, 79)
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{16, 16}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.parallelCutover = 30000
	q := query.NewQuery(4).WithRange(2, 100, 900)
	agg := query.NewCount()
	run := func() {
		agg.Reset()
		// workers 0 and a huge cutover: refinement fans out (the unrefined
		// ranges cover the table), the scan that follows stays sequential.
		if st := idx.Run(nil, q, agg, 0); st.RangesRefined < refineParallelRanges {
			t.Fatalf("only %d ranges refined: the query stays under the parallel threshold", st.RangesRefined)
		}
	}
	run() // warm the pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
		t.Errorf("%d allocs per query refined in parallel, want 0", allocs)
	}
}

// TestOneSidedRangeOnTinyDomainGridDim is the regression test for the
// bucketer extreme-value overflow at the engine level: a one-sided predicate
// ([v, PosInf]) on a flattened grid dimension with a tiny value domain
// (dictionary codes) used to project to an inverted column range and visit a
// single grid cell, silently dropping most matches. Covers both bucketer
// kinds.
func TestOneSidedRangeOnTinyDomainGridDim(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	n := 4000
	code := make([]int64, n) // tiny domain, e.g. dictionary codes
	val := make([]int64, n)
	for i := 0; i < n; i++ {
		code[i] = rng.Int63n(5)
		val[i] = rng.Int63n(1000) - 500 // negative min for the linear bucketer
	}
	tbl := colstore.MustNewTable([]string{"code", "val"}, [][]int64{code, val})
	for _, flatten := range []bool{true, false} {
		idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{5, 4}, SortDim: -1, Flatten: flatten}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		queries := []query.Query{
			query.NewQuery(2).WithRange(0, 1, query.PosInf),
			query.NewQuery(2).WithRange(0, query.NegInf, 3),
			query.NewQuery(2).WithRange(1, 0, query.PosInf),
			query.NewQuery(2).WithRange(0, 2, query.PosInf).WithRange(1, query.NegInf, 100),
		}
		for qi, q := range queries {
			agg := query.NewCount()
			idx.Execute(q, agg)
			want := int64(0)
			for i := 0; i < n; i++ {
				if q.Matches([]int64{code[i], val[i]}) {
					want++
				}
			}
			if agg.Result() != want {
				t.Fatalf("flatten=%v query %d: engine counted %d, brute force %d", flatten, qi, agg.Result(), want)
			}
		}
	}
}
