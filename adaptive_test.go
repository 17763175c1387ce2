package flood

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flood/internal/dataset"
	"flood/internal/workload"
)

// adaptiveUnderTest builds a small serving stack with cheap relearn options
// (the calibrated cost model is reused, so background relearns skip
// calibration) and drift detection effectively disabled unless the test
// drives it by hand.
func adaptiveUnderTest(t *testing.T, cfg *AdaptiveConfig) (*AdaptiveIndex, *dataset.Dataset, []Query) {
	t.Helper()
	idx, ds, queries := buildSmall(t)
	if cfg == nil {
		cfg = &AdaptiveConfig{}
	}
	if cfg.DriftFactor == 0 {
		cfg.DriftFactor = 1e9 // monitor never fires on its own
	}
	if cfg.Build == nil {
		cfg.Build = &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 207}
	}
	a := NewAdaptiveIndex(idx, cfg)
	t.Cleanup(func() { a.Close() })
	return a, ds, queries
}

// markerRow clones a random dataset row and stamps the date dimension with a
// value far outside the original domain, so marker rows are isolatable.
func markerRow(ds *dataset.Dataset, rng *rand.Rand, dateCol int, i int) []int64 {
	src := rng.Intn(ds.Table.NumRows())
	row := make([]int64, ds.Table.NumCols())
	for c := range row {
		row[c] = ds.Cols[c][src]
	}
	row[dateCol] = 5000 + int64(i%500)
	return row
}

func countOf(t *testing.T, idx Index, q Query) int64 {
	t.Helper()
	agg := NewCount()
	idx.Execute(q, agg)
	return agg.Result()
}

// TestAdaptiveSwapEquivalence pins the core swap-safety property: a forced
// background relearn folds the delta in, swaps layouts, and every query
// returns exactly what it returned before the swap.
func TestAdaptiveSwapEquivalence(t *testing.T) {
	a, ds, queries := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(301))
	const added = 200
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	probes := append([]Query{marker}, queries[:10]...)
	before := make([]int64, len(probes))
	for i, q := range probes {
		before[i] = countOf(t, a, q)
	}
	if before[0] != added {
		t.Fatalf("marker query found %d before swap, want %d", before[0], added)
	}
	oldLayout := a.Layout().String()

	if !a.TriggerRelearn() {
		t.Fatal("forced relearn did not start")
	}
	a.Wait()

	st := a.Stats()
	if st.Relearns != 1 {
		t.Fatalf("relearns = %d, want 1 (last error: %v)", st.Relearns, st.LastError)
	}
	if st.LastError != nil {
		t.Fatalf("relearn failed: %v", st.LastError)
	}
	if st.LastSwap.IsZero() {
		t.Fatal("LastSwap not recorded")
	}
	if st.PendingRows != 0 {
		t.Fatalf("relearn left %d rows pending; the delta should fold in", st.PendingRows)
	}
	if st.BaseRows != ds.Table.NumRows()+added {
		t.Fatalf("base has %d rows after swap, want %d", st.BaseRows, ds.Table.NumRows()+added)
	}
	for i, q := range probes {
		if after := countOf(t, a, q); after != before[i] {
			t.Fatalf("probe %d: count %d after swap, want %d (layout %s -> %s)",
				i, after, before[i], oldLayout, a.Layout())
		}
	}
}

// TestAdaptiveConcurrentServeDuringRelearn is the zero-downtime acceptance
// test: readers and a writer hammer the index while a background relearn
// (stretched by a test hook) completes and swaps the layout. Run under
// -race. Every reader sees monotonically non-decreasing counts (rows never
// vanish mid-swap), nobody blocks, and after the dust settles the count is
// exact — no stale reads after the swap.
func TestAdaptiveConcurrentServeDuringRelearn(t *testing.T) {
	a, ds, queries := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	a.testHookBuilt = func() { time.Sleep(30 * time.Millisecond) }
	dateCol := ds.ColumnIndex("date")
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	if got := countOf(t, a, marker); got != 0 {
		t.Fatalf("marker query found %d rows before any insert", got)
	}

	const (
		readers = 4
		inserts = 400
	)
	var (
		wg       sync.WaitGroup
		inserted atomic.Int64
		stop     atomic.Bool
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var prev int64
			for i := 0; !stop.Load(); i++ {
				low := inserted.Load() // rows inserted before this Execute must be visible
				agg := NewCount()
				a.Execute(marker, agg)
				got := agg.Result()
				if got < prev {
					t.Errorf("reader %d: count went backwards: %d -> %d", r, prev, got)
					return
				}
				if got < low {
					t.Errorf("reader %d: stale read: saw %d rows, %d were already inserted", r, got, low)
					return
				}
				prev = got
				// Mix in real workload queries so the reservoir and
				// monitor see realistic traffic.
				if i%8 == 0 {
					a.Execute(queries[i%len(queries)], NewCount())
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(302))
		for i := 0; i < inserts; i++ {
			row := markerRow(ds, rng, dateCol, i)
			if err := a.Insert(row); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			inserted.Add(1)
		}
	}()

	// Let traffic build up, then force the relearn mid-stream.
	for a.Stats().Queries < 50 {
		time.Sleep(time.Millisecond)
	}
	if !a.TriggerRelearn() {
		t.Fatal("forced relearn did not start")
	}
	a.Wait()
	stop.Store(true)
	wg.Wait()
	a.Wait() // a reader's monitor observation cannot trigger here (factor 1e9), but be safe

	st := a.Stats()
	if st.Relearns != 1 {
		t.Fatalf("relearns = %d, want 1 (last error: %v)", st.Relearns, st.LastError)
	}
	if got := countOf(t, a, marker); got != inserts {
		t.Fatalf("after swap: marker count %d, want %d (pending %d, base %d)",
			got, inserts, st.PendingRows, st.BaseRows)
	}
	if a.NumRows() != ds.Table.NumRows()+inserts {
		t.Fatalf("NumRows = %d, want %d", a.NumRows(), ds.Table.NumRows()+inserts)
	}
}

// TestAdaptiveTriggerCoalescing pins the backpressure rule: at most one
// rebuild in flight, and every trigger that arrives while it runs coalesces
// into it instead of queueing another.
func TestAdaptiveTriggerCoalescing(t *testing.T) {
	a, _, queries := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	a.testHookBuilt = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	a.Execute(queries[0], NewCount()) // seed the reservoir

	if !a.TriggerRelearn() {
		t.Fatal("first trigger should start a rebuild")
	}
	<-entered // the rebuild is now provably in flight
	if !a.Stats().Rebuilding {
		t.Fatal("Stats should report an in-flight rebuild")
	}
	var extra atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a.TriggerRelearn() {
				extra.Add(1)
			}
			if a.TriggerMerge() {
				extra.Add(1)
			}
		}()
	}
	wg.Wait()
	if extra.Load() != 0 {
		t.Fatalf("%d triggers started rebuilds while one was in flight", extra.Load())
	}
	close(release)
	a.Wait()
	if st := a.Stats(); st.Relearns != 1 || st.Merges != 0 {
		t.Fatalf("relearns=%d merges=%d after coalesced triggers, want 1/0", st.Relearns, st.Merges)
	}
}

// TestAdaptiveAutoMerge pins merge-threshold scheduling: once the insert log
// exceeds MergeFraction of the base, a background merge folds it in without
// being asked.
func TestAdaptiveAutoMerge(t *testing.T) {
	a, ds, _ := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: 0.01}) // 6000 rows -> merge at 60
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(303))
	const added = 150
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Wait()
	st := a.Stats()
	if st.Merges == 0 {
		t.Fatalf("no auto-merge after %d inserts at threshold %d", added, 60)
	}
	if st.Relearns != 0 {
		t.Fatalf("auto-merge must not relearn the layout (relearns=%d)", st.Relearns)
	}
	if st.PendingRows >= added {
		t.Fatalf("pending=%d; merges should have drained the log", st.PendingRows)
	}
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	if got := countOf(t, a, marker); got != added {
		t.Fatalf("marker count %d after auto-merge, want %d", got, added)
	}
}

// TestAdaptiveMonitorDrivenRelearn drives the monitor with synthetic slow
// stats and verifies the drift signal starts a relearn on its own — the
// serving-loop path, without forced triggers — once a full window has been
// observed and enough queries sampled.
func TestAdaptiveMonitorDrivenRelearn(t *testing.T) {
	a, _, queries := adaptiveUnderTest(t, &AdaptiveConfig{DriftFactor: 2})
	ep := a.epoch.Load()
	ref, _ := ep.mon.state()
	if ref <= 0 {
		t.Fatal("monitor should seed its reference from the predicted cost")
	}
	slow := Stats{Total: time.Duration(ref*100) * time.Nanosecond}
	for i := 0; i < 2*driftWindow && a.Stats().Relearns == 0; i++ {
		a.observe(ep, queries[i%len(queries)], slow)
		a.Wait()
	}
	if st := a.Stats(); st.Relearns == 0 {
		t.Fatalf("sustained 100x regression never triggered a relearn (last error: %v)", st.LastError)
	}
	// The swap reset the monitor: the fresh window must not re-fire on
	// normal traffic.
	ep = a.epoch.Load()
	ref, _ = ep.mon.state()
	fast := Stats{Total: time.Duration(ref) * time.Nanosecond}
	for i := 0; i < 2*driftWindow; i++ {
		a.observe(ep, queries[i%len(queries)], fast)
	}
	a.Wait()
	if st := a.Stats(); st.Relearns != 1 {
		t.Fatalf("monitor re-fired on normal traffic after the swap (relearns=%d)", st.Relearns)
	}
}

// TestAdaptiveExecuteBatch pins the batched serving path: same results as
// one-at-a-time execution, including pending insert-log rows.
func TestAdaptiveExecuteBatch(t *testing.T) {
	a, ds, queries := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(304))
	for i := 0; i < 80; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := append([]Query{NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)}, queries[:12]...)
	aggs := make([]Aggregator, len(batch))
	for i := range aggs {
		aggs[i] = NewCount()
	}
	stats := a.ExecuteBatch(batch, aggs)
	if len(stats) != len(batch) {
		t.Fatalf("got %d stats for %d queries", len(stats), len(batch))
	}
	for i, q := range batch {
		if want := countOf(t, a, q); aggs[i].Result() != want {
			t.Fatalf("batch query %d: count %d, want %d", i, aggs[i].Result(), want)
		}
	}
}

// TestAdaptiveExecuteOr pins disjunction serving: exact union counts (each
// row once, despite overlap and pending insert-log rows), one served query
// per disjunction, and no drift-monitor pollution from decomposed pieces.
func TestAdaptiveExecuteOr(t *testing.T) {
	a, ds, _ := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	rng := rand.New(rand.NewSource(305))
	const added = 120
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
	}
	nd := ds.Table.NumCols()
	or := []Query{
		NewQuery(nd).WithRange(dateCol, 5000, 5300), // overlaps the next piece
		NewQuery(nd).WithRange(dateCol, 5200, 6000),
		NewQuery(nd).WithRange(dateCol, 5100, 5400),
	}
	union := countOf(t, a, NewQuery(nd).WithRange(dateCol, 5000, 6000))
	q0 := a.Stats().Queries
	agg := NewCount()
	ExecuteOr(a, or, agg)
	if agg.Result() != union {
		t.Fatalf("OR counted %d, union is %d", agg.Result(), union)
	}
	if got := a.Stats().Queries - q0; got != 1 {
		t.Fatalf("one disjunction recorded %d served queries; pieces must not count", got)
	}
	if avg := a.Stats().WindowAverage; avg != 0 {
		// The marker/union Executes above did feed the monitor; what must
		// not happen is the OR's decomposed pieces shifting it further.
		before := avg
		ExecuteOr(a, or, NewCount())
		if after := a.Stats().WindowAverage; after != before {
			t.Fatalf("disjunction pieces moved the drift window: %v -> %v", before, after)
		}
	}
}

// TestAdaptiveBookkeepingByOutcome pins what one execution feeds, by how it
// ended: a completed query reaches the workload sample and the drift
// monitor; a limit-truncated select is real workload signal for the sample,
// but its truncated timing stays out of the monitor; a canceled execution —
// refused up front or stopped mid-scan — reaches neither.
func TestAdaptiveBookkeepingByOutcome(t *testing.T) {
	a, ds, _ := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	q := NewQuery(ds.Table.NumCols()).WithRange(0, NegInf, PosInf)
	type snapshot struct {
		served  int64
		sampled int
		window  float64
	}
	var last snapshot
	step := func(what string, served int64, sampled int, monitored bool) {
		t.Helper()
		st := a.Stats()
		now := snapshot{st.Queries, st.SampledQueries, st.WindowAverage}
		if now.served-last.served != served || now.sampled-last.sampled != sampled || (now.window != last.window) != monitored {
			t.Fatalf("%s: served %+d, sampled %+d, monitor window %v -> %v; want %+d, %+d, monitored %v",
				what, now.served-last.served, now.sampled-last.sampled, last.window, now.window, served, sampled, monitored)
		}
		last = now
	}
	step("fresh index", 0, 0, false)

	a.Execute(q, NewCount())
	step("completed Execute", 1, 1, true)

	rows, _, err := a.SelectContext(context.Background(), q, &QueryOptions{Limit: 3})
	if err != nil || rows.Len() != 3 {
		t.Fatalf("limited select returned %d rows (err %v)", rows.Len(), err)
	}
	rows.Close()
	step("limit-truncated SelectContext", 1, 1, false)

	if _, err := a.ExecuteContext(canceledCtx(), q, NewCount()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ExecuteContext err = %v", err)
	}
	step("pre-canceled ExecuteContext", 0, 0, false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := a.ExecuteContext(ctx, q, &cancelOnDeliver{cancel: cancel, once: &sync.Once{}}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-scan cancel err = %v", err)
	}
	step("ExecuteContext canceled mid-scan", 0, 0, false)
}

// TestAdaptiveSideLogSegments pushes the insert log well past the sealing
// granularity so scans cross multiple sealed segments plus the transient
// suffix, and stay exact.
func TestAdaptiveSideLogSegments(t *testing.T) {
	a, ds, _ := adaptiveUnderTest(t, &AdaptiveConfig{MergeFraction: -1})
	dateCol := ds.ColumnIndex("date")
	marker := NewQuery(ds.Table.NumCols()).WithRange(dateCol, 5000, 6000)
	rng := rand.New(rand.NewSource(306))
	const added = 5000 // > 2 sealed segments at logViewStep=2048
	for i := 0; i < added; i++ {
		if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
			t.Fatal(err)
		}
		if i%1500 == 0 { // interleave reads so sealing happens mid-growth
			a.Execute(marker, NewCount())
		}
	}
	if got := countOf(t, a, marker); got != added {
		t.Fatalf("segmented log scan found %d, want %d", got, added)
	}
	if segs := *a.epoch.Load().log.segs.Load(); len(segs) < 2 {
		t.Fatalf("expected >=2 sealed segments for %d rows, got %d", added, len(segs))
	}
}

// TestAdaptiveInsertValidation pins row-width checking and post-Close
// serving behavior.
func TestAdaptiveInsertValidation(t *testing.T) {
	a, ds, queries := adaptiveUnderTest(t, nil)
	if err := a.Insert([]int64{1, 2}); err == nil {
		t.Fatal("short row should fail")
	}
	if a.TriggerMerge() {
		t.Fatal("merge with nothing pending should not start")
	}
	a.Close()
	if a.TriggerRelearn() {
		t.Fatal("closed index should refuse rebuilds")
	}
	// Serving still works after Close; it just stops adapting.
	if got := countOf(t, a, queries[0]); got < 0 {
		t.Fatal("unreachable")
	}
	_ = ds
}

// TestReservoirSampling pins the workload reservoir: bounded size, uniform
// composition, copy-safe snapshots, and era reset.
func TestReservoirSampling(t *testing.T) {
	r := workload.NewReservoir(50, 7)
	d := 3
	for i := 0; i < 1000; i++ {
		q := NewQuery(d).WithEquals(0, int64(i))
		r.Add(q)
	}
	if r.Len() != 50 {
		t.Fatalf("reservoir holds %d, want 50", r.Len())
	}
	if r.Seen() != 1000 {
		t.Fatalf("seen %d, want 1000", r.Seen())
	}
	snap := r.Snapshot()
	late := 0
	for _, q := range snap {
		if q.Ranges[0].Min >= 500 {
			late++
		}
	}
	// A uniform sample of 50 from 1000 has ~25 from the second half; 10-40
	// is a >6-sigma window.
	if late < 10 || late > 40 {
		t.Fatalf("sample badly skewed: %d/50 from the second half of the stream", late)
	}
	r.Reset()
	if r.Len() != 0 || r.Seen() != 0 {
		t.Fatal("reset did not clear the reservoir")
	}
	if len(snap) != 50 {
		t.Fatal("snapshot must survive a reset")
	}
}

// TestReservoirCopiesRanges pins the deep-copy contract: queries whose
// Ranges live in reused scratch (the pooled disjunction arena hands such
// queries to AdaptiveIndex.ExecuteBatch) must not corrupt the sample when
// the scratch is recycled.
func TestReservoirCopiesRanges(t *testing.T) {
	r := workload.NewReservoir(4, 7)
	arena := []Range{{Min: 10, Max: 20, Present: true}}
	r.Add(Query{Ranges: arena})
	arena[0] = Range{Min: -1, Max: -1, Present: true} // scratch reuse
	got := r.Snapshot()[0].Ranges[0]
	if got.Min != 10 || got.Max != 20 {
		t.Fatalf("sampled query aliases caller scratch: %+v", got)
	}
}
