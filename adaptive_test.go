package flood

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/dataset"
	"flood/internal/query"
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

// TestAdaptiveSideLogSegments holds the insert log's scan — the sealed
// blocks plus the partial block a read encodes — to brute force at pending
// counts on both sides of every block boundary: Count, Select (each id
// decodes to the row inserted at that log position), a disjunction whose
// pieces each read the partial block, Select ids fed back to DeleteRows, and
// a predicate Delete resolving its log victims through the same scan.
func TestAdaptiveSideLogSegments(t *testing.T) {
	idx, ds, _ := buildSmall(t)
	dateCol := ds.ColumnIndex("date")
	other := (dateCol + 1) % ds.Table.NumCols()
	vals := slices.Sorted(slices.Values(ds.Cols[other]))
	p30, p50, p70 := vals[len(vals)*3/10], vals[len(vals)/2], vals[len(vals)*7/10]
	base := int64(ds.Table.NumRows())
	box := func(date0, date1, lo, hi int64) Query {
		return NewQuery(ds.Table.NumCols()).WithRange(dateCol, date0, date1).WithRange(other, lo, hi)
	}
	marker := box(5000, 5999, NegInf, PosInf)
	for _, pending := range []int{0, 1, 127, 128, 129, 255, 256, 1000, 5000} {
		t.Run(fmt.Sprintf("pending=%d", pending), func(t *testing.T) {
			a := NewAdaptiveIndex(idx, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
			defer a.Close()
			rng := rand.New(rand.NewSource(int64(306 + pending)))
			logRows := make([][]int64, pending)
			dead := make([]bool, pending)
			for i := range logRows {
				logRows[i] = markerRow(ds, rng, dateCol, i)
				if err := a.Insert(logRows[i]); err != nil {
					t.Fatal(err)
				}
				if i%100 == 0 { // reads interleaved with growth
					a.Execute(marker, NewCount())
				}
			}
			// brute is the ids of the live log rows matching any of qs.
			brute := func(qs ...Query) (ids []int64) {
				for i, row := range logRows {
					if !dead[i] && slices.ContainsFunc(qs, func(q Query) bool { return q.Matches(row) }) {
						ids = append(ids, base+int64(i))
					}
				}
				return ids
			}
			// selected drains rows, checking each id decodes to the row
			// inserted at its log position.
			selected := func(rows *Rows) (ids []int64) {
				defer rows.Close()
				for rows.Next() {
					id := rows.RowID()
					if id < base || id >= base+int64(pending) {
						t.Fatalf("row id %d outside the log's ids [%d, %d)", id, base, base+int64(pending))
					}
					for c, v := range logRows[id-base] {
						if got := rows.Int64(c); got != v {
							t.Fatalf("id %d column %d decodes %d, inserted %d", id, c, got, v)
						}
					}
					ids = append(ids, id)
				}
				slices.Sort(ids)
				return ids
			}

			if got := countOf(t, a, marker); got != int64(pending) {
				t.Fatalf("log scan counted %d, want %d", got, pending)
			}
			band := box(5000, 5999, p30, p70)
			sel, _ := a.Select(band)
			ids := selected(sel)
			if want := brute(band); !slices.Equal(ids, want) || (pending >= 100 && len(ids) == 0) {
				t.Fatalf("Select found %d ids, brute force %d", len(ids), len(want))
			}
			or := []Query{box(5000, 5249, NegInf, p50), box(5100, 5499, p50, PosInf)}
			orRows, _ := a.Schema().SelectOr(a, or)
			if got, want := selected(orRows), brute(or...); !slices.Equal(got, want) {
				t.Fatalf("SelectOr found %d ids, brute force %d", len(got), len(want))
			}

			n, err := a.DeleteRows(ids)
			if err != nil || n != int64(len(ids)) {
				t.Fatalf("DeleteRows of the selected ids = (%d, %v), want %d", n, err, len(ids))
			}
			for _, id := range ids {
				dead[id-base] = true
			}
			if n, _ := a.DeleteRows(ids); n != 0 {
				t.Fatalf("second DeleteRows deleted %d", n)
			}
			if got := countOf(t, a, band); got != 0 {
				t.Fatalf("deleted band still counts %d", got)
			}
			head := box(5000, 5099, NegInf, PosInf)
			want := brute(head)
			if n, err := a.Delete(head); err != nil || n != int64(len(want)) {
				t.Fatalf("Delete = (%d, %v), brute force %d", n, err, len(want))
			}
			for _, id := range want {
				dead[id-base] = true
			}
			if got, want := countOf(t, a, marker), int64(len(brute(marker))); got != want {
				t.Fatalf("after deletes the log counts %d, brute force %d", got, want)
			}
		})
	}

	// A log past the parallel cutover runs on the morsel engine and
	// collects the ids the sequential kernel does.
	t.Run("pending=40000", func(t *testing.T) {
		a := NewAdaptiveIndex(idx, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
		defer a.Close()
		rng := rand.New(rand.NewSource(340))
		for i := 0; i < 40000; i++ {
			if err := a.Insert(markerRow(ds, rng, dateCol, i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.DeleteRows([]int64{base + 3, base + 20000, base + 39999}); err != nil {
			t.Fatal(err)
		}
		ep := a.epoch.Load()
		for _, q := range []Query{marker, box(5100, 5300, p30, p70)} {
			var seq, par query.RowCollector
			seqSt := ep.scan(nil, q, &seq, 1)
			before, _ := core.HelperShare()
			parSt := ep.scan(nil, q, &par, 4)
			if after, _ := core.HelperShare(); after.Units == before.Units {
				t.Fatal("a 40,000-row log scan with 4 workers did not take the morsel engine")
			}
			par.Sort()
			if !slices.Equal(seq.IDs(), par.IDs()) || seqSt.Scanned != parSt.Scanned || seqSt.Matched != parSt.Matched {
				t.Fatalf("parallel log scan: %d ids (scanned %d), sequential %d (scanned %d)",
					par.Len(), parSt.Scanned, seq.Len(), seqSt.Scanned)
			}
		}
	})
}

// TestAdaptiveSealedLogConcurrentReaders races inserters, whose rows cross
// block boundaries and so seal blocks under the writer lock, against readers
// running Execute and Select. Every row a reader decodes must be one whole
// inserted row (no torn read across the sealed table and the partial
// block), appear once, and a reader's counts never shrink.
func TestAdaptiveSealedLogConcurrentReaders(t *testing.T) {
	idx, ds, _ := buildSmall(t)
	a := NewAdaptiveIndex(idx, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
	defer a.Close()
	const writers, perWriter, keyBase = 2, 700, 1 << 40
	cols := ds.Table.NumCols()
	// Row key k holds (c+1)·keyBase + k in column c, so the row is
	// recoverable from any one column.
	marker := NewQuery(cols).WithRange(0, keyBase, 2*keyBase-1)
	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := make([]int64, cols)
				for c := range row {
					row[c] = int64(c+1)*keyBase + int64(w*perWriter+i)
				}
				if err := a.Insert(row); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	errs := make(chan error, 2)
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastCount, lastSel int64
			for !done.Load() {
				cnt := NewCount()
				a.Execute(marker, cnt)
				if cnt.Result() < lastCount {
					errs <- fmt.Errorf("count went from %d to %d", lastCount, cnt.Result())
					return
				}
				lastCount = cnt.Result()
				rows, _ := a.Select(marker)
				seen := map[int64]bool{}
				for rows.Next() {
					k := rows.Int64(0) - keyBase
					for c := 1; c < cols; c++ {
						if rows.Int64(c) != int64(c+1)*keyBase+k {
							rows.Close()
							errs <- fmt.Errorf("torn row: column %d holds %d for key %d", c, rows.Int64(c), k)
							return
						}
					}
					if seen[k] {
						rows.Close()
						errs <- fmt.Errorf("key %d selected twice", k)
						return
					}
					seen[k] = true
				}
				rows.Close()
				if int64(len(seen)) < lastSel {
					errs <- fmt.Errorf("select went from %d rows to %d", lastSel, len(seen))
					return
				}
				lastSel = int64(len(seen))
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := countOf(t, a, marker); got != writers*perWriter {
		t.Fatalf("final count %d, want %d", got, writers*perWriter)
	}
}

// TestSideLogHoldsEachRowOnce: a log of 25,000 pending rows — what the
// default MergeFraction lets pend on a 200k-row sales base — costs the heap
// its sealed table plus at most one raw block, with a fifth of the sealed
// bytes to spare for slice growth. A log that also kept every row raw would
// need about 6 times the sealed bytes. Another goroutine's live allocations
// can only add to the measurement, so a reading over the limit is retaken
// twice before the test fails.
func TestSideLogHoldsEachRowOnce(t *testing.T) {
	const n, pending = 200_000, 25_000
	ds := dataset.Sales(n, 1403)
	names := ds.Table.Names()
	measure := func() (heap, sealed int64) {
		row := make([]int64, len(names))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		l := newSideLog(names)
		for i := 0; i < pending; i++ {
			for c := range row {
				row[c] = ds.Cols[c][(i*7919)%n]
			}
			l.append(row)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ds)
		runtime.KeepAlive(l)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc), l.state.Load().sealed.SizeBytes()
	}
	heap, sealed := measure()
	block := int64(colstore.BlockSize * len(names) * 8)
	limit := sealed*6/5 + block
	for try := 1; try < 3 && heap > limit; try++ {
		heap, _ = measure()
	}
	if heap > limit {
		t.Fatalf("log of %d rows holds %d heap bytes, want at most 1.2 × %d sealed + %d for one raw block = %d",
			pending, heap, sealed, block, limit)
	}
	t.Logf("%d rows: %d heap bytes, %d sealed (%.1f B a row)", pending, heap, sealed, float64(heap)/pending)
}

// TestAdaptiveInsertAllocations pins the allocation floor of an Insert into
// a merges-off log, amortised over 1,024 rows so every eighth block seal is
// counted: at most 3 allocations a row.
func TestAdaptiveInsertAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside the insert")
	}
	idx, ds, _ := buildSmall(t)
	a := NewAdaptiveIndex(idx, &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1})
	defer a.Close()
	const perRun = 1024
	rows := make([][]int64, perRun)
	for i := range rows {
		rows[i] = make([]int64, ds.Table.NumCols())
		for c := range rows[i] {
			rows[i][c] = ds.Cols[c][(i*7919)%ds.Table.NumRows()]
		}
	}
	allocs := testing.AllocsPerRun(4, func() {
		for _, row := range rows {
			if err := a.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / perRun; per > 3 {
		t.Fatalf("Insert allocates %.2f times a row, want at most 3", per)
	}
	t.Logf("%.3f allocations a row", allocs/perRun)
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
	if r.Len() != 0 {
		t.Fatal("reset did not clear the reservoir")
	}
	if len(snap) != 50 {
		t.Fatal("snapshot must survive a reset")
	}
	// A new era samples uniformly from its own start: of 1000 more queries,
	// the first 50 should hold ~2.5 of the 50 slots. A reset that kept the
	// old era's count would replace with probability 50/(1000+i) and leave
	// ~26 of them resident.
	for i := 1000; i < 2000; i++ {
		r.Add(NewQuery(d).WithEquals(0, int64(i)))
	}
	early := 0
	for _, q := range r.Snapshot() {
		if q.Ranges[0].Min < 1050 {
			early++
		}
	}
	if early > 10 {
		t.Fatalf("new era's first 50 queries hold %d/50 slots: reset kept the old era's count", early)
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
