package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flood/internal/colstore"
	"flood/internal/query"
)

// sequentialOnly hides an aggregator's Mergeable methods so Execute is
// forced onto the sequential scan path, whatever the cutover says.
type sequentialOnly struct{ query.Aggregator }

// withGOMAXPROCS runs fn under the given GOMAXPROCS setting, restoring the
// previous value afterwards. The worker pool re-reads GOMAXPROCS on every
// query, so the setting takes effect immediately.
func withGOMAXPROCS(t *testing.T, procs int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fn(t)
	})
}

// assertScanStatsEqual compares the scan-phase counters that must be
// bit-identical between sequential and parallel execution.
func assertScanStatsEqual(t *testing.T, label string, seq, par query.Stats) {
	t.Helper()
	if par.Scanned != seq.Scanned || par.Matched != seq.Matched || par.ExactMatched != seq.ExactMatched {
		t.Fatalf("%s: parallel stats (scanned=%d matched=%d exact=%d) != sequential (scanned=%d matched=%d exact=%d)",
			label, par.Scanned, par.Matched, par.ExactMatched, seq.Scanned, seq.Matched, seq.ExactMatched)
	}
	if par.CellsVisited != seq.CellsVisited || par.ScanRanges != seq.ScanRanges || par.RangesRefined != seq.RangesRefined {
		t.Fatalf("%s: parallel index stats (cells=%d ranges=%d refined=%d) != sequential (cells=%d ranges=%d refined=%d)",
			label, par.CellsVisited, par.ScanRanges, par.RangesRefined, seq.CellsVisited, seq.ScanRanges, seq.RangesRefined)
	}
}

// TestAdaptiveParallelEquivalence pins the tentpole invariant: with the
// cutover forced to 1 row, every query takes the morsel-driven path (when
// more than one worker is available) and must produce exactly the results
// and scan counters of the sequential path.
func TestAdaptiveParallelEquivalence(t *testing.T) {
	tbl, data := makeData(t, 30000, 4, 301)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx.parallelCutover = 1
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs, func(t *testing.T) {
			rng := rand.New(rand.NewSource(302))
			for trial := 0; trial < 30; trial++ {
				q := randomQuery(rng, data, 4)
				seq := query.NewCount()
				seqSt := idx.Execute(q, sequentialOnly{seq})
				par := query.NewCount()
				parSt := idx.Execute(q, par)
				if par.Result() != seq.Result() {
					t.Fatalf("trial %d: adaptive count %d != sequential %d", trial, par.Result(), seq.Result())
				}
				if want := bruteCount(data, q); par.Result() != want {
					t.Fatalf("trial %d: count %d != brute force %d", trial, par.Result(), want)
				}
				assertScanStatsEqual(t, fmt.Sprintf("trial %d", trial), seqSt, parSt)
			}
		})
	}
}

// TestParallelAllAggregators runs every mergeable aggregator through the
// forced-parallel path against its sequential result.
func TestParallelAllAggregators(t *testing.T) {
	tbl, data := makeData(t, 20000, 4, 303)
	tbl.EnableAggregate(3)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{8, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(304))
	mk := func() []query.Mergeable {
		return []query.Mergeable{query.NewCount(), query.NewSum(3), query.NewMin(3), query.NewMax(3)}
	}
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, data, 3)
		seqs, pars := mk(), mk()
		for i := range seqs {
			idx.Execute(q, sequentialOnly{seqs[i]})
			idx.Run(nil, q, pars[i], 5)
			if pars[i].Result() != seqs[i].Result() {
				t.Fatalf("trial %d agg %d: parallel %d != sequential %d",
					trial, i, pars[i].Result(), seqs[i].Result())
			}
		}
	}
}

// randomLayout builds a valid random layout over nDims dimensions.
func randomLayout(rng *rand.Rand, nDims int) Layout {
	perm := rng.Perm(nDims)
	g := 1 + rng.Intn(nDims-1)
	l := Layout{
		GridDims: perm[:g],
		GridCols: make([]int, g),
		SortDim:  -1,
		Flatten:  rng.Intn(2) == 0,
	}
	for i := range l.GridCols {
		l.GridCols[i] = 1 + rng.Intn(8)
	}
	if rng.Intn(4) > 0 {
		l.SortDim = perm[g]
	}
	return l
}

// TestParallelRandomLayoutsProperty is the property test over random
// layouts: whatever grid shape and sort dimension are in play, sequential,
// adaptive-parallel, forced-parallel, and batched execution all agree with
// brute force.
func TestParallelRandomLayoutsProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tbl, data := makeData(t, 8000, 5, 305)
	rng := rand.New(rand.NewSource(306))
	for trial := 0; trial < 12; trial++ {
		layout := randomLayout(rng, 5)
		idx, err := Build(tbl, layout, Options{})
		if err != nil {
			t.Fatalf("layout %s: %v", layout, err)
		}
		idx.parallelCutover = 1
		queries := make([]query.Query, 8)
		aggs := make([]query.Aggregator, len(queries))
		for i := range queries {
			queries[i] = randomQuery(rng, data, 5)
			aggs[i] = query.NewCount()
		}
		batchStats := runBatch(idx, queries, aggs)
		for i, q := range queries {
			want := bruteCount(data, q)
			if got := aggs[i].(*query.Count).Result(); got != want {
				t.Fatalf("layout %s: batch count %d != brute %d", layout, got, want)
			}
			seq := query.NewCount()
			seqSt := idx.Execute(q, sequentialOnly{seq})
			par := query.NewCount()
			parSt := idx.Run(nil, q, par, 3)
			if par.Result() != want || seq.Result() != want {
				t.Fatalf("layout %s: parallel %d / sequential %d != brute %d",
					layout, par.Result(), seq.Result(), want)
			}
			assertScanStatsEqual(t, layout.String(), seqSt, parSt)
			if batchStats[i].Scanned != seqSt.Scanned || batchStats[i].Matched != seqSt.Matched {
				t.Fatalf("layout %s: batch stats (scanned=%d matched=%d) != sequential (scanned=%d matched=%d)",
					layout, batchStats[i].Scanned, batchStats[i].Matched, seqSt.Scanned, seqSt.Matched)
			}
		}
	}
}

// TestRefineParallelEquivalence drives a query across enough cells to cross
// refineParallelRanges, so refinement probes fan out over the pool, and
// checks the refined results against GOMAXPROCS=1.
func TestRefineParallelEquivalence(t *testing.T) {
	tbl, data := makeData(t, 40000, 3, 307)
	layout := Layout{GridDims: []int{0}, GridCols: []int{256}, SortDim: 1, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery(3).WithRange(0, 0, 1000).WithRange(1, 0, 800)
	var want int64
	var wantSt query.Stats
	withGOMAXPROCS(t, 1, func(t *testing.T) {
		agg := query.NewCount()
		wantSt = idx.Execute(q, agg)
		want = agg.Result()
		if wantSt.RangesRefined < refineParallelRanges {
			t.Fatalf("query refines %d ranges, need >= %d to exercise the parallel path",
				wantSt.RangesRefined, refineParallelRanges)
		}
	})
	withGOMAXPROCS(t, 4, func(t *testing.T) {
		agg := query.NewCount()
		st := idx.Execute(q, agg)
		if agg.Result() != want {
			t.Fatalf("parallel refine: count %d != %d", agg.Result(), want)
		}
		assertScanStatsEqual(t, "refine", wantSt, st)
		if bc := bruteCount(data, q); want != bc {
			t.Fatalf("count %d != brute force %d", want, bc)
		}
	})
}

// runBatch is the batch path as the facades run it: every member on the
// sequential kernel, the batch fanned out over the shared pool.
func runBatch(idx *Flood, queries []query.Query, aggs []query.Aggregator) []query.Stats {
	stats := make([]query.Stats, len(queries))
	RunBatch(len(queries), func(i int) {
		stats[i] = idx.Run(nil, queries[i], aggs[i], 1)
	})
	return stats
}

// TestExecuteBatchMatchesSequential checks the batched serving path against
// one-at-a-time execution, including the per-query stats.
func TestExecuteBatchMatchesSequential(t *testing.T) {
	tbl, data := makeData(t, 15000, 4, 308)
	tbl.EnableAggregate(3)
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{8, 4}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs, func(t *testing.T) {
			rng := rand.New(rand.NewSource(309))
			queries := make([]query.Query, 40)
			batchAggs := make([]query.Aggregator, len(queries))
			seqAggs := make([]query.Aggregator, len(queries))
			for i := range queries {
				queries[i] = randomQuery(rng, data, 4)
				switch i % 4 {
				case 0:
					batchAggs[i], seqAggs[i] = query.NewCount(), query.NewCount()
				case 1:
					batchAggs[i], seqAggs[i] = query.NewSum(3), query.NewSum(3)
				case 2:
					batchAggs[i], seqAggs[i] = query.NewMin(3), query.NewMin(3)
				default:
					batchAggs[i], seqAggs[i] = query.NewMax(3), query.NewMax(3)
				}
			}
			batchStats := runBatch(idx, queries, batchAggs)
			for i := range queries {
				seqSt := idx.Execute(queries[i], sequentialOnly{seqAggs[i]})
				if batchAggs[i].Result() != seqAggs[i].Result() {
					t.Fatalf("query %d: batch result %d != sequential %d",
						i, batchAggs[i].Result(), seqAggs[i].Result())
				}
				assertScanStatsEqual(t, fmt.Sprintf("query %d", i), seqSt, batchStats[i])
			}
		})
	}
}

// TestAppendMorsels pins the morsel splitter: full coverage, no overlap,
// block-aligned interior boundaries, masks inherited from the source range.
func TestAppendMorsels(t *testing.T) {
	spans := []Span{
		{Start: 100, End: 70000, Mask: 0},
		{Start: 70000, End: 70001, Mask: 5},
		{Start: 80000, End: 80000, Mask: 1}, // empty: dropped
		{Start: 90000, End: 300000, Mask: 9},
	}
	const target = MorselRows
	got := appendMorsels(nil, spans, target)
	var i int
	for _, sp := range spans {
		s, e := sp.Start, sp.End
		for s < e {
			if i >= len(got) {
				t.Fatalf("ran out of morsels covering span [%d, %d)", sp.Start, sp.End)
			}
			m := got[i]
			if m.Start != s || m.Mask != sp.Mask {
				t.Fatalf("morsel %d = %+v, want start %d mask %d", i, m, s, sp.Mask)
			}
			if m.End != e && m.End%target != 0 {
				t.Fatalf("morsel %d interior boundary %d not target-aligned", i, m.End)
			}
			if m.End <= m.Start || m.End > e {
				t.Fatalf("morsel %d = %+v escapes span [%d, %d)", i, m, sp.Start, sp.End)
			}
			s = m.End
			i++
		}
	}
	if i != len(got) {
		t.Fatalf("%d extra morsels", len(got)-i)
	}
}

func TestMorselTargetBounds(t *testing.T) {
	for _, tc := range []struct{ est, workers, want int }{
		{100, 8, minMorselRows},      // tiny scans stay coarse
		{100_000_000, 8, MorselRows}, // huge scans cap at MorselRows
		{1_000_000, 8, 31232},        // 1M/32 rounded down to a block multiple
	} {
		if got := morselTarget(tc.est, tc.workers); got != tc.want {
			t.Errorf("morselTarget(%d, %d) = %d, want %d", tc.est, tc.workers, got, tc.want)
		}
		if got := morselTarget(tc.est, tc.workers); got%colstore.BlockSize != 0 {
			t.Errorf("morselTarget(%d, %d) = %d not block-aligned", tc.est, tc.workers, got)
		}
	}
}

// quiesce waits until no pool helper is lingering and the queue is empty,
// and stays so for a few windows, so a test's spin count starts from rest:
// stale query tasks left in the queue by earlier tests would spin legitimately.
func quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for calm := time.Now(); time.Since(calm) < 20*spinWindow; {
		if spinners.Load() != 0 || len(execPool.tasks) != 0 {
			calm = time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never came to rest: %d spinning, %d queued", spinners.Load(), len(execPool.tasks))
		}
		time.Sleep(spinWindow / 4)
	}
}

// rendezvous is the body of a two-chunk pool loop whose chunks wait (up to a
// second) for each other to start, so a pool helper, not only the caller,
// runs one of them.
func rendezvous() func(lo, hi int) {
	var started atomic.Int32
	return func(lo, hi int) {
		started.Add(1)
		for deadline := time.Now().Add(time.Second); started.Load() < 2 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
}

// assertNoSpin runs fn on a pool at rest and checks that no helper lingered
// afterwards: closures are build stages and batches, never a query's own
// parallel section, so they must go straight back to parking.
func assertNoSpin(t *testing.T, fn func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	quiesce(t)
	before := spins.Load()
	fn()
	time.Sleep(20 * spinWindow) // a helper that was going to spin has by now
	if n := spins.Load() - before; n != 0 {
		t.Fatalf("helpers lingered %d times after closure tasks, want 0", n)
	}
}

// TestParallelForNeverSpins: a build stage's helpers park as soon as their
// chunk is done.
func TestParallelForNeverSpins(t *testing.T) {
	assertNoSpin(t, func() { parallelFor(2, rendezvous()) })
}

// TestRunBatchNeverSpins: a batch's helpers park as soon as their member is
// done — the serving collector's batches must not leave spinning helpers
// competing with connection goroutines.
func TestRunBatchNeverSpins(t *testing.T) {
	assertNoSpin(t, func() {
		wait := rendezvous()
		RunBatch(2, func(i int) { wait(i, i+1) })
	})
}

// TestParallelHelpersStopSpinning: a helper lingers after a query job, and
// once spinWindow passes with no work it parks — an idle process burns no
// CPU. The bound is loose for loaded CI runners; the window is 150 µs.
func TestParallelHelpersStopSpinning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tbl, _ := makeData(t, 40000, 3, 311)
	idx, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t)
	before := spins.Load()
	idx.Run(nil, query.NewQuery(3), query.NewCount(), 2)
	deadline := time.Now().Add(2 * time.Second)
	for spins.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("no helper lingered after a morsel scan")
		}
		runtime.Gosched()
	}
	start := time.Now()
	for spinners.Load() != 0 {
		if time.Since(start) > time.Second {
			t.Fatalf("%d helpers still spinning %v after the last query", spinners.Load(), time.Since(start))
		}
		time.Sleep(spinWindow / 4)
	}
	t.Logf("helpers parked %v after lingering began", time.Since(start))
}

// TestParallelSingleProcStartsNoHelper: at GOMAXPROCS=1 a query job offers
// no helper at all — nothing is queued, no goroutine is started, none spins.
func TestParallelSingleProcStartsNoHelper(t *testing.T) {
	tbl, _ := makeData(t, 40000, 3, 312)
	idx, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	quiesce(t)
	execPool.mu.Lock()
	spawned := execPool.spawned
	execPool.mu.Unlock()
	before := spins.Load()
	ran := make(eachOnce, 4)
	for i := 0; i < 10; i++ {
		idx.Run(nil, query.NewQuery(3), query.NewCount(), 4)
		RunTasks(len(ran), ran)
	}
	time.Sleep(20 * spinWindow)
	execPool.mu.Lock()
	defer execPool.mu.Unlock()
	if execPool.spawned != spawned || len(execPool.tasks) != 0 || spins.Load() != before {
		t.Fatalf("GOMAXPROCS=1: pool grew %d -> %d, %d tasks queued, %d spins",
			spawned, execPool.spawned, len(execPool.tasks), spins.Load()-before)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 10 {
			t.Fatalf("RunTasks ran task %d %d times, want 10", i, c)
		}
	}
}

// eachOnce is a query job for tests: task i counts its runs in slot i. Not a
// closure, so RunTasks treats it as one query's parallel section.
type eachOnce []atomic.Int32

func (c eachOnce) RunTask(i int, _ bool) { c[i].Add(1) }

// TestParallelRunTasksEachOnce: every task of every way into the pool — a
// query job, a batch, a build stage's chunks — runs exactly once, whichever
// goroutines claim them, and the call returns only after all have.
func TestParallelRunTasksEachOnce(t *testing.T) {
	ways := []struct {
		name string
		run  func(counts eachOnce)
	}{
		{"RunTasks", func(c eachOnce) { RunTasks(len(c), c) }},
		{"RunBatch", func(c eachOnce) { RunBatch(len(c), func(i int) { c.RunTask(i, false) }) }},
		{"parallelFor", func(c eachOnce) {
			parallelFor(len(c), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c.RunTask(i, false)
				}
			})
		}},
	}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(t, procs, func(t *testing.T) {
			for _, way := range ways {
				for _, n := range []int{1, 2, 7, 64} {
					counts := make(eachOnce, n)
					way.run(counts)
					for i := range counts {
						if c := counts[i].Load(); c != 1 {
							t.Fatalf("%s n=%d: task %d ran %d times", way.name, n, i, c)
						}
					}
				}
			}
		})
	}
}

// --- benchmarks (recorded in BENCH_scan.json via `make bench`) ---

// parallelBenchIndex builds the 1M-row index behind the parallel-vs-
// sequential headline numbers: two grid dimensions, a sort dimension, and
// queries at ~2-4% selectivity so the scan volume clears the cutover.
func parallelBenchIndex(b *testing.B) (*Flood, []query.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	n := 1_000_000
	data := make([][]int64, 3)
	for d := range data {
		data[d] = make([]int64, n)
		for i := range data[d] {
			data[d][i] = rng.Int63n(1 << 20)
		}
	}
	tbl, err := colstore.NewTable([]string{"a", "b", "c"}, data)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{32, 32}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]query.Query, 64)
	for i := range queries {
		lo0 := rng.Int63n(1 << 19)
		lo1 := rng.Int63n(1 << 19)
		w := int64(1 << 18) // ~1/4 of the domain per dim -> ~6% of cells
		queries[i] = query.NewQuery(3).WithRange(0, lo0, lo0+w).WithRange(1, lo1, lo1+w)
	}
	return idx, queries
}

// BenchmarkParallelExecute1M compares the PR 1 sequential scan against the
// morsel engine on 1M rows. "adaptive" is plain Execute (cost-based
// cutover); workersN forces the engine width, capped at GOMAXPROCS. Each
// reports helper_frac, the share of morsels pool helpers scanned: what the
// second core contributed. At GOMAXPROCS=1 the parallel variants are the
// sequential path plus the morsel bookkeeping.
func BenchmarkParallelExecute1M(b *testing.B) {
	idx, queries := parallelBenchIndex(b)
	cnt := query.NewCount()
	run := func(name string, agg query.Aggregator, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			since, _ := HelperShare()
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				idx.Run(nil, queries[i%len(queries)], agg, workers)
			}
			morsels, _ := HelperShare()
			b.ReportMetric(morsels.Frac(since), "helper_frac")
		})
	}
	// The wrapper is boxed once here, not per iteration.
	run("sequential", sequentialOnly{cnt}, 0)
	run("adaptive", cnt, 0)
	for _, workers := range []int{2, 4, 8} {
		run(fmt.Sprintf("workers%d", workers), cnt, workers)
	}
}

// BenchmarkExecuteBatch1M measures the batched serving path: 64 queries per
// op, one-at-a-time vs fanned out over the shared pool.
func BenchmarkExecuteBatch1M(b *testing.B) {
	idx, queries := parallelBenchIndex(b)
	aggs := make([]query.Aggregator, len(queries))
	for i := range aggs {
		aggs[i] = query.NewCount()
	}
	reset := func() {
		for _, a := range aggs {
			a.Reset()
		}
	}
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			for j, q := range queries {
				idx.Run(nil, q, aggs[j], 1)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			runBatch(idx, queries, aggs)
		}
	})
}
