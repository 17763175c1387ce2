// Package baseline_test cross-checks every baseline index against full-scan
// ground truth on randomized data and queries — the indexes differ wildly in
// mechanism but must agree exactly on results.
package baseline_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"flood/internal/baseline"
	"flood/internal/baseline/plan"
	"flood/internal/colstore"
	"flood/internal/query"
)

// kinds lists every baseline in the paper's order.
var kinds = []baseline.Kind{
	baseline.FullScan, baseline.Clustered, baseline.GridFile, baseline.ZOrder,
	baseline.UBTree, baseline.Hyperoctree, baseline.KDTree, baseline.RStarTree,
}

func makeData(t testing.TB, nRows, nDims int, seed int64) (*colstore.Table, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]int64, nDims)
	names := make([]string, nDims)
	for d := range data {
		data[d] = make([]int64, nRows)
		names[d] = string(rune('a' + d))
		for i := range data[d] {
			switch d % 4 {
			case 0:
				data[d][i] = rng.Int63n(1000)
			case 1:
				data[d][i] = int64(math.Exp(rng.NormFloat64()*1.5 + 6))
			case 2:
				data[d][i] = rng.Int63n(8) // low-cardinality categorical
			default:
				data[d][i] = rng.Int63n(1_000_000) - 500_000
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
	point := make([]int64, len(data))
	for i := 0; i < len(data[0]); i++ {
		for d := range data {
			point[d] = data[d][i]
		}
		if q.Matches(point) {
			cnt++
		}
	}
	return cnt
}

func randomQuery(rng *rand.Rand, data [][]int64, maxDims int) query.Query {
	q := query.NewQuery(len(data))
	nf := 1 + rng.Intn(maxDims)
	for k := 0; k < nf; k++ {
		d := rng.Intn(len(data))
		lo := data[d][rng.Intn(len(data[d]))]
		hi := data[d][rng.Intn(len(data[d]))]
		if lo > hi {
			lo, hi = hi, lo
		}
		if rng.Intn(5) == 0 {
			hi = lo // equality predicate
		}
		q = q.WithRange(d, lo, hi)
	}
	return q
}

func mustBuild(t testing.TB, kind baseline.Kind, tbl *colstore.Table, dims []int, pageSize int) *plan.Index {
	t.Helper()
	idx, err := baseline.Build(kind, tbl, dims, pageSize)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return idx
}

// allIndexes builds every baseline over all of tbl's dimensions.
func allIndexes(t testing.TB, tbl *colstore.Table, pageSize int) []*plan.Index {
	t.Helper()
	dims := make([]int, tbl.NumCols())
	for d := range dims {
		dims[d] = d
	}
	var out []*plan.Index
	for _, kind := range kinds {
		out = append(out, mustBuild(t, kind, tbl, dims, pageSize))
	}
	return out
}

// makeLowCardData draws nDims columns with minCard..maxCard distinct values
// each: many rows share one point, so one Z-code, one tree box or one grid
// block spans several pages.
func makeLowCardData(t testing.TB, nRows, nDims, minCard, maxCard int, seed int64) (*colstore.Table, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]int64, nDims)
	names := make([]string, nDims)
	for d := range data {
		card := int64(minCard + rng.Intn(maxCard-minCard+1))
		data[d] = make([]int64, nRows)
		names[d] = string(rune('a' + d))
		for i := range data[d] {
			data[d][i] = rng.Int63n(card)
		}
	}
	return colstore.MustNewTable(names, data), data
}

// TestAllBaselinesMatchBruteForce is the shared answer check: every baseline,
// on every input, returns the brute-force count in the aggregator and in
// Stats.Matched. The low-cardinality inputs are the ones where a page
// boundary falls inside a run of equal Z-codes (ZOrder and UBtree used to
// start their walk one page late there and drop rows).
func TestAllBaselinesMatchBruteForce(t *testing.T) {
	type input struct {
		name     string
		tbl      *colstore.Table
		data     [][]int64
		pageSize int
		trials   int
	}
	tbl, data := makeData(t, 4000, 4, 101)
	inputs := []input{
		{"mixed/page64", tbl, data, 64, 30},
		{"mixed/page512", tbl, data, 512, 30},
	}
	for i := int64(0); i < 6; i++ {
		tbl, data := makeLowCardData(t, 3000, 4, 1, 9, 400+i)
		inputs = append(inputs, input{fmt.Sprintf("lowcard4d/%d", i), tbl, data, 32, 20})
	}
	for i := int64(0); i < 20; i++ {
		tbl, data := makeLowCardData(t, 2000, 2, 2, 13, 500+i)
		inputs = append(inputs, input{fmt.Sprintf("lowcard2d/%d", i), tbl, data, 16, 25})
	}
	rng := rand.New(rand.NewSource(202))
	for _, in := range inputs {
		for _, idx := range allIndexes(t, in.tbl, in.pageSize) {
			for trial := 0; trial < in.trials; trial++ {
				q := randomQuery(rng, in.data, len(in.data))
				agg := query.NewCount()
				st := idx.Execute(q, agg)
				want := bruteCount(in.data, q)
				if agg.Result() != want {
					t.Fatalf("%s %s: count = %d, want %d (query %+v)",
						in.name, idx.Name(), agg.Result(), want, q.Ranges)
				}
				if st.Matched != want {
					t.Fatalf("%s %s: stats.Matched = %d, want %d", in.name, idx.Name(), st.Matched, want)
				}
				if st.Scanned < st.Matched {
					t.Fatalf("%s %s: scanned %d < matched %d", in.name, idx.Name(), st.Scanned, st.Matched)
				}
			}
		}
	}
}

// TestBaselineScanVolumeGolden pins how much each planner hands the scan
// stage: summed over forty fixed-seed queries per index, Scanned, Matched and
// ExactMatched equal what each baseline's own scan loop produced before the
// loops were folded into the one stage. UBtree is the exception: it now
// keeps whole pages and lets the kernel filter inside them where it used to
// walk row by row, so its Scanned is the new planner's (the row walk read
// 100112 and 111707).
func TestBaselineScanVolumeGolden(t *testing.T) {
	golden := map[string][3]int64{ // name/pageSize -> Scanned, Matched, ExactMatched
		"FullScan/64":     {160000, 21065, 0},
		"Clustered/64":    {112685, 21065, 1371},
		"GridFile/64":     {55776, 21065, 0},
		"ZOrder/64":       {105184, 21065, 1728},
		"UBtree/64":       {105120, 21065, 0},
		"Hyperoctree/64":  {65172, 21065, 7189},
		"KDTree/64":       {57084, 21065, 3583},
		"RStar/64":        {59482, 21065, 3637},
		"FullScan/512":    {160000, 21065, 0},
		"Clustered/512":   {112685, 21065, 1371},
		"GridFile/512":    {94796, 21065, 0},
		"ZOrder/512":      {107392, 21065, 0},
		"UBtree/512":      {107392, 21065, 0},
		"Hyperoctree/512": {95800, 21065, 1368},
		"KDTree/512":      {83750, 21065, 573},
		"RStar/512":       {84640, 21065, 0},
	}
	tbl, data := makeData(t, 4000, 4, 101)
	for _, pageSize := range []int{64, 512} {
		for _, idx := range allIndexes(t, tbl, pageSize) {
			rng := rand.New(rand.NewSource(303))
			var tot query.Stats
			for trial := 0; trial < 40; trial++ {
				tot.Add(idx.Execute(randomQuery(rng, data, 4), query.NewCount()))
			}
			key := fmt.Sprintf("%s/%d", idx.Name(), pageSize)
			if got := [3]int64{tot.Scanned, tot.Matched, tot.ExactMatched}; got != golden[key] {
				t.Errorf("%s: Scanned, Matched, ExactMatched = %v, want %v", key, got, golden[key])
			}
		}
	}
}

// TestBaselineParallelMatchesSequential drives the one wrapper's controlled
// entry for all eight: the forced morsel engine, the pinned sequential kernel
// and the adaptive choice give the brute-force answer and identical scan
// counters, with one worker and with four.
func TestBaselineParallelMatchesSequential(t *testing.T) {
	tbl, data := makeData(t, 40_000, 4, 120)
	idxs := allIndexes(t, tbl, 512)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(121))
		for trial := 0; trial < 12; trial++ {
			q := randomQuery(rng, data, 3)
			want := bruteCount(data, q)
			for _, idx := range idxs {
				seqAgg := query.NewCount()
				seq := idx.Run(nil, q, seqAgg, 1)
				if seqAgg.Result() != want {
					t.Fatalf("%s: sequential count = %d, want %d", idx.Name(), seqAgg.Result(), want)
				}
				for _, workers := range []int{0, 4} {
					agg := query.NewCount()
					st := idx.Run(nil, q, agg, workers)
					if agg.Result() != want {
						t.Fatalf("%s workers=%d procs=%d: count = %d, want %d", idx.Name(), workers, procs, agg.Result(), want)
					}
					if st.Scanned != seq.Scanned || st.Matched != seq.Matched || st.ExactMatched != seq.ExactMatched {
						t.Fatalf("%s workers=%d procs=%d: counters (%d, %d, %d) != sequential (%d, %d, %d)", idx.Name(), workers, procs,
							st.Scanned, st.Matched, st.ExactMatched, seq.Scanned, seq.Matched, seq.ExactMatched)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBaselineExecuteZeroAlloc pins the steady state of the two baselines
// whose planning is itself allocation-free: with the span list and the
// scanner pooled, a query allocates nothing.
func TestBaselineExecuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	tbl, _ := makeData(t, 4000, 4, 122)
	q := query.NewQuery(4).WithRange(0, 100, 300).WithRange(2, 1, 5)
	agg := query.NewCount()
	for _, kind := range []baseline.Kind{baseline.FullScan, baseline.Clustered} {
		idx := mustBuild(t, kind, tbl, []int{0, 1, 2, 3}, 0)
		idx.Execute(q, agg) // warm the pools
		if allocs := testing.AllocsPerRun(100, func() { idx.Execute(q, agg) }); allocs != 0 {
			t.Errorf("%s: steady-state Execute allocates %.1f times per query, want 0", idx.Name(), allocs)
		}
	}
}

func TestBaselinesUnfilteredQuery(t *testing.T) {
	tbl, _ := makeData(t, 1500, 4, 103)
	for _, idx := range allIndexes(t, tbl, 256) {
		agg := query.NewCount()
		idx.Execute(query.NewQuery(4), agg)
		if agg.Result() != 1500 {
			t.Fatalf("%s: unfiltered count = %d, want 1500", idx.Name(), agg.Result())
		}
	}
}

func TestBaselinesEmptyQuery(t *testing.T) {
	tbl, _ := makeData(t, 800, 4, 104)
	for _, idx := range allIndexes(t, tbl, 256) {
		agg := query.NewCount()
		st := idx.Execute(query.NewQuery(4).WithRange(1, 50, 10), agg)
		if agg.Result() != 0 {
			t.Fatalf("%s: inverted-range count = %d, want 0", idx.Name(), agg.Result())
		}
		if st.Matched != 0 {
			t.Fatalf("%s: inverted-range matched = %d", idx.Name(), st.Matched)
		}
	}
}

func TestBaselinesOutOfDomainQuery(t *testing.T) {
	tbl, _ := makeData(t, 800, 4, 105)
	for _, idx := range allIndexes(t, tbl, 256) {
		agg := query.NewCount()
		idx.Execute(query.NewQuery(4).WithRange(0, 1<<40, 1<<41), agg)
		if agg.Result() != 0 {
			t.Fatalf("%s: out-of-domain count = %d, want 0", idx.Name(), agg.Result())
		}
	}
}

func TestBaselinesSumAgree(t *testing.T) {
	tbl, data := makeData(t, 2000, 4, 106)
	rng := rand.New(rand.NewSource(107))
	for _, idx := range allIndexes(t, tbl, 512) {
		for trial := 0; trial < 10; trial++ {
			q := randomQuery(rng, data, 3)
			agg := query.NewSum(3)
			idx.Execute(q, agg)
			var want int64
			point := make([]int64, 4)
			for i := range data[0] {
				for d := range data {
					point[d] = data[d][i]
				}
				if q.Matches(point) {
					want += data[3][i]
				}
			}
			if agg.Result() != want {
				t.Fatalf("%s: sum = %d, want %d", idx.Name(), agg.Result(), want)
			}
		}
	}
}

func TestBaselinesSizeBytes(t *testing.T) {
	tbl, _ := makeData(t, 3000, 4, 108)
	for _, idx := range allIndexes(t, tbl, 128) {
		if idx.Name() == "FullScan" {
			if idx.SizeBytes() != 0 {
				t.Fatal("full scan should have zero metadata")
			}
			continue
		}
		if idx.SizeBytes() <= 0 {
			t.Fatalf("%s: SizeBytes = %d, want > 0", idx.Name(), idx.SizeBytes())
		}
	}
}

func TestBaselinesFilterOnUnindexedDim(t *testing.T) {
	// Indexes built over dims {0,1} must still answer filters on dim 3
	// correctly (residual row checks).
	tbl, data := makeData(t, 2000, 4, 109)
	rng := rand.New(rand.NewSource(110))
	for _, kind := range kinds[2:] { // all but FullScan and Clustered
		idx := mustBuild(t, kind, tbl, []int{0, 1}, 256)
		for trial := 0; trial < 15; trial++ {
			q := randomQuery(rng, data, 2).WithRange(3, -100_000, 100_000)
			agg := query.NewCount()
			idx.Execute(q, agg)
			if want := bruteCount(data, q); agg.Result() != want {
				t.Fatalf("%s: count = %d, want %d", idx.Name(), agg.Result(), want)
			}
		}
	}
}

func TestClusteredFallsBackToFullScan(t *testing.T) {
	tbl, data := makeData(t, 1000, 4, 111)
	cl := mustBuild(t, baseline.Clustered, tbl, []int{2}, 0)
	// No filter on the key dim: the whole table must be scanned.
	q := query.NewQuery(4).WithRange(0, 100, 500)
	agg := query.NewCount()
	st := cl.Execute(q, agg)
	if st.Scanned != 1000 {
		t.Fatalf("expected full scan (1000 scanned), got %d", st.Scanned)
	}
	if want := bruteCount(data, q); agg.Result() != want {
		t.Fatalf("count = %d, want %d", agg.Result(), want)
	}
	// Filter on the key dim: scan should narrow.
	q = query.NewQuery(4).WithRange(2, 2, 3)
	agg.Reset()
	st = cl.Execute(q, agg)
	if want := bruteCount(data, q); agg.Result() != want {
		t.Fatalf("narrowed count = %d, want %d", agg.Result(), want)
	}
	if st.Scanned >= 1000 {
		t.Fatalf("key-dim filter should narrow the scan, scanned %d", st.Scanned)
	}
}

func TestTreeBaselinesPruneDisjointRegions(t *testing.T) {
	tbl, _ := makeData(t, 8000, 4, 112)
	q := query.NewQuery(4).WithRange(0, 0, 20) // ~2% of dim 0's domain
	for _, kind := range []baseline.Kind{baseline.Hyperoctree, baseline.KDTree, baseline.RStarTree} {
		idx := mustBuild(t, kind, tbl, []int{0, 1, 2, 3}, 128)
		agg := query.NewCount()
		st := idx.Execute(q, agg)
		if st.Scanned >= 8000 {
			t.Fatalf("%s: selective query scanned everything (%d)", idx.Name(), st.Scanned)
		}
	}
}

func TestGridFileDegenerateData(t *testing.T) {
	// All points identical: buckets cannot split; build must still finish.
	n := 600
	con := make([]int64, n)
	u := make([]int64, n)
	for i := range con {
		con[i] = 7
		u[i] = 7
	}
	tbl := colstore.MustNewTable([]string{"a", "b"}, [][]int64{con, u})
	gf := mustBuild(t, baseline.GridFile, tbl, []int{0, 1}, 64)
	agg := query.NewCount()
	gf.Execute(query.NewQuery(2).WithEquals(0, 7), agg)
	if agg.Result() != int64(n) {
		t.Fatalf("degenerate grid file count = %d, want %d", agg.Result(), n)
	}
}

func TestUBTreeSkipAheadNarrowsScan(t *testing.T) {
	// A thin rectangle along dim 1 forces the Z-curve to leave and
	// re-enter the rectangle; skip-ahead must avoid scanning everything.
	rng := rand.New(rand.NewSource(113))
	n := 20000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = rng.Int63n(1 << 16)
		b[i] = rng.Int63n(1 << 16)
	}
	tbl := colstore.MustNewTable([]string{"a", "b"}, [][]int64{a, b})
	ub := mustBuild(t, baseline.UBTree, tbl, []int{0, 1}, 256)
	q := query.NewQuery(2).WithRange(0, 0, 1<<16).WithRange(1, 1000, 1100)
	agg := query.NewCount()
	st := ub.Execute(q, agg)
	var want int64
	for i := range a {
		if b[i] >= 1000 && b[i] <= 1100 {
			want++
		}
	}
	if agg.Result() != want {
		t.Fatalf("count = %d, want %d", agg.Result(), want)
	}
	if st.Scanned > int64(n)*3/4 {
		t.Fatalf("skip-ahead ineffective: scanned %d of %d", st.Scanned, n)
	}
}
