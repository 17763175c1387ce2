package flood

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestFloodExecuteBatchMatchesExecute pins the public batched serving path:
// same results and per-query scan stats as one-at-a-time execution.
func TestFloodExecuteBatchMatchesExecute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	idx, _, queries := buildSmall(t)
	batchAggs := make([]Aggregator, len(queries))
	for i := range batchAggs {
		batchAggs[i] = NewCount()
	}
	batchStats := idx.ExecuteBatch(queries, batchAggs)
	for i, q := range queries {
		agg := NewCount()
		st := idx.Execute(q, agg)
		if batchAggs[i].Result() != agg.Result() {
			t.Fatalf("query %d: batch count %d != sequential %d", i, batchAggs[i].Result(), agg.Result())
		}
		if batchStats[i].Scanned != st.Scanned || batchStats[i].Matched != st.Matched {
			t.Fatalf("query %d: batch stats (scanned=%d matched=%d) != sequential (scanned=%d matched=%d)",
				i, batchStats[i].Scanned, batchStats[i].Matched, st.Scanned, st.Matched)
		}
	}
}

// TestExecuteBatchLenMismatchPanics pins the one misuse the batch surface
// refuses outright.
func TestExecuteBatchLenMismatchPanics(t *testing.T) {
	idx, _, _ := buildSmall(t)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched queries/aggs lengths must panic")
		}
	}()
	idx.ExecuteBatch(make([]Query, 2), make([]Aggregator, 1))
}

// unmerged wraps idx in an adaptive index whose autonomous rebuilds are off,
// so pending inserts stay in the insert log until mergeNow: the
// explicitly-merged insert buffer.
func unmerged(t testing.TB, idx *Flood) *AdaptiveIndex {
	t.Helper()
	a := NewAdaptiveIndex(idx, &AdaptiveConfig{MergeFraction: -1, DriftFactor: 1e12})
	t.Cleanup(func() { a.Close() })
	return a
}

// mergeNow folds a's insert log into its base and waits for the swap.
func mergeNow(t testing.TB, a *AdaptiveIndex) {
	t.Helper()
	a.TriggerMerge()
	a.Wait()
	if st := a.Stats(); st.LastError != nil || st.PendingRows != 0 {
		t.Fatalf("merge left %d pending rows (error %v)", st.PendingRows, st.LastError)
	}
}

// TestAdaptiveExecuteBatchWithPending checks the batched path while rows
// sit in the insert log: base + pending must both be visible, identically
// to sequential Execute.
func TestAdaptiveExecuteBatchWithPending(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	idx, ds, queries := buildSmall(t)
	d := unmerged(t, idx)
	rng := rand.New(rand.NewSource(401))
	for i := 0; i < 500; i++ {
		src := rng.Intn(6000)
		row := make([]int64, ds.Table.NumCols())
		for c := range row {
			row[c] = ds.Cols[c][src]
		}
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().PendingRows; got != 500 {
		t.Fatalf("pending = %d, want 500", got)
	}
	batchAggs := make([]Aggregator, len(queries))
	for i := range batchAggs {
		batchAggs[i] = NewCount()
	}
	batchStats := d.ExecuteBatch(queries, batchAggs)
	for i, q := range queries {
		agg := NewCount()
		st := d.Execute(q, agg)
		if batchAggs[i].Result() != agg.Result() {
			t.Fatalf("query %d: pending batch count %d != sequential %d", i, batchAggs[i].Result(), agg.Result())
		}
		if batchStats[i].Scanned != st.Scanned || batchStats[i].Matched != st.Matched {
			t.Fatalf("query %d: pending batch stats (scanned=%d matched=%d) != sequential (scanned=%d matched=%d)",
				i, batchStats[i].Scanned, batchStats[i].Matched, st.Scanned, st.Matched)
		}
	}
	// After merging, the batched path still agrees.
	mergeNow(t, d)
	post := make([]Aggregator, len(queries))
	for i := range post {
		post[i] = NewCount()
	}
	d.ExecuteBatch(queries, post)
	for i := range queries {
		if post[i].Result() != batchAggs[i].Result() {
			t.Fatalf("query %d: post-merge batch count %d != pre-merge %d",
				i, post[i].Result(), batchAggs[i].Result())
		}
	}
}

// TestAdaptiveConcurrentReadsWithPending runs many goroutines against an
// index with pending rows no scan has touched yet: they must agree on
// results; the race detector covers the rest.
func TestAdaptiveConcurrentReadsWithPending(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	idx, ds, queries := buildSmall(t)
	row := make([]int64, ds.Table.NumCols())
	for c := range row {
		row[c] = ds.Cols[c][0]
	}
	fresh := func() *AdaptiveIndex {
		d := unmerged(t, idx)
		for i := 0; i < 50; i++ {
			if err := d.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	q := queries[0]
	want := NewCount()
	fresh().Execute(q, want)
	d := fresh()
	var wg sync.WaitGroup
	results := make([]int64, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			agg := NewCount()
			d.Execute(q, agg)
			results[g] = agg.Result()
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r != want.Result() {
			t.Fatalf("goroutine %d: count %d != %d", g, r, want.Result())
		}
	}
}

// TestExecuteOrFacadeMatchesForeignIndex runs the same disjunction through
// Flood's own engine and through a wrapper that hides it, leaving only the
// Index interface (the fallback every baseline takes); both must agree.
func TestExecuteOrFacadeMatchesForeignIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	idx, ds, _ := buildSmall(t)
	rng := rand.New(rand.NewSource(402))
	nd := ds.Table.NumCols()
	for trial := 0; trial < 10; trial++ {
		var rects []Query
		for i := 0; i < 2+rng.Intn(3); i++ {
			d := rng.Intn(nd)
			lo := ds.Cols[d][rng.Intn(len(ds.Cols[d]))]
			hi := ds.Cols[d][rng.Intn(len(ds.Cols[d]))]
			if lo > hi {
				lo, hi = hi, lo
			}
			rects = append(rects, NewQuery(nd).WithRange(d, lo, hi))
		}
		facade, plain := NewCount(), NewCount()
		ExecuteOr(idx, rects, facade)
		ExecuteOr(indexOnly{idx}, rects, plain)
		if facade.Result() != plain.Result() {
			t.Fatalf("trial %d: facade ExecuteOr %d != foreign-index %d", trial, facade.Result(), plain.Result())
		}
	}
}

// indexOnly hides everything but the Index interface, so the package-level
// helpers take the foreign-index fallback.
type indexOnly struct{ idx *Flood }

func (w indexOnly) Name() string                          { return w.idx.Name() }
func (w indexOnly) SizeBytes() int64                      { return w.idx.SizeBytes() }
func (w indexOnly) Execute(q Query, agg Aggregator) Stats { return w.idx.Execute(q, agg) }
func (w indexOnly) ExecuteContext(ctx context.Context, q Query, agg Aggregator) (Stats, error) {
	return w.idx.ExecuteContext(ctx, q, agg)
}

// TestMonitorConcurrentRecord hammers record from many goroutines — the
// situation batched serving creates — and relies on the race detector (CI
// runs this package under -race) to catch unsynchronized window access.
func TestMonitorConcurrentRecord(t *testing.T) {
	mon := newMonitor(0, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mon.record(Stats{Total: time.Duration(1+g) * time.Microsecond})
				_, _ = mon.state()
			}
		}(g)
	}
	wg.Wait()
	ref, avg := mon.state()
	if ref == 0 {
		t.Fatal("reference should be established after 4000 records")
	}
	if avg < float64(time.Microsecond) || avg > float64(9*time.Microsecond) {
		t.Fatalf("window average %v outside recorded range", time.Duration(avg))
	}
}
