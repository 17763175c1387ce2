package flood

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flood/internal/query"
)

// canceledCtx returns a context that is already canceled.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestExecuteContextPreCanceled pins the prompt-return contract: an already
// canceled context returns ErrCanceled without scanning a single row, on
// every index type behind the Index interface.
func TestExecuteContextPreCanceled(t *testing.T) {
	idx, ds, queries := buildSmall(t)
	a := NewAdaptiveIndex(idx, nil)
	defer a.Close()
	fs, err := BuildBaseline(FullScan, ds.Table, BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kd, err := BuildBaseline(KDTree, ds.Table, BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	for _, idx := range []Index{idx, a, fs, kd} {
		agg := NewCount()
		st, err := idx.ExecuteContext(canceledCtx(), q, agg)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: pre-canceled ExecuteContext err = %v, want ErrCanceled", idx.Name(), err)
		}
		if st.Scanned != 0 || agg.Result() != 0 {
			t.Fatalf("%s: pre-canceled ExecuteContext scanned %d rows, delivered %d", idx.Name(), st.Scanned, agg.Result())
		}
	}
	// Batch and Select variants share the contract.
	if _, err := idx.ExecuteBatchContext(canceledCtx(), queries[:2], []Aggregator{NewCount(), NewCount()}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ExecuteBatchContext err = %v", err)
	}
	rows, st, err := idx.SelectContext(canceledCtx(), q, nil)
	if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || rows.Len() != 0 {
		t.Fatalf("pre-canceled SelectContext = (%d rows, %d scanned, %v)", rows.Len(), st.Scanned, err)
	}
	rows.Close()
	// A deadline already in the past behaves the same.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rows, st, err = idx.SelectContext(expired, q, &QueryOptions{Limit: 3})
	if !errors.Is(err, ErrCanceled) || st.Scanned != 0 || rows.Len() != 0 {
		t.Fatalf("expired-deadline SelectContext = (%d rows, %d scanned, %v)", rows.Len(), st.Scanned, err)
	}
	rows.Close()
	if _, err := ExecuteOrContext(canceledCtx(), idx, queries[:2], NewCount()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled ExecuteOrContext err = %v", err)
	}
}

// TestExecuteContextBackgroundMatchesExecute pins overhead-parity semantics:
// with a background context, ExecuteContext returns identical results and
// scan counters to Execute, for the learned index and every baseline.
func TestExecuteContextBackgroundMatchesExecute(t *testing.T) {
	idx, ds, queries := buildSmall(t)
	indexes := []Index{idx}
	for _, kind := range Baselines() {
		b, err := BuildBaseline(kind, ds.Table, BaselineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		indexes = append(indexes, b)
	}
	for _, ix := range indexes {
		for _, q := range queries[:8] {
			plain, ctxed := NewCount(), NewCount()
			st1 := ix.Execute(q, plain)
			st2, err := ix.ExecuteContext(context.Background(), q, ctxed)
			if err != nil {
				t.Fatalf("%s: ExecuteContext err = %v", ix.Name(), err)
			}
			if plain.Result() != ctxed.Result() {
				t.Fatalf("%s: ExecuteContext count %d != Execute %d", ix.Name(), ctxed.Result(), plain.Result())
			}
			if st1.Scanned != st2.Scanned || st1.Matched != st2.Matched {
				t.Fatalf("%s: ExecuteContext stats (%d/%d) != Execute (%d/%d)",
					ix.Name(), st2.Scanned, st2.Matched, st1.Scanned, st1.Matched)
			}
		}
	}
}

// TestExecuteContextZeroAllocSequential pins the acceptance criterion: the
// context-aware entry points with a background context keep the sequential
// path allocation-free in steady state.
func TestExecuteContextZeroAllocSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	fx := newTypedFixture(t, 20_000, 31)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithFloatRange("fare", 10, 80).Query()
	cnt := NewCount()
	if _, err := idx.ExecuteContext(context.Background(), q, cnt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		cnt.Reset()
		if _, err := idx.ExecuteContext(context.Background(), q, cnt); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecuteContext(Background) allocated %.1f times per op, want 0", allocs)
	}
	// SelectContext with nil options shares the unconditioned path.
	rows, _, _ := idx.SelectContext(context.Background(), q, nil, "ts")
	rows.Close()
	allocs = testing.AllocsPerRun(50, func() {
		rows, _, err := idx.SelectContext(context.Background(), q, nil, "ts")
		if err != nil {
			panic(err)
		}
		rows.Close()
	})
	if allocs != 0 {
		t.Fatalf("SelectContext(Background, nil) allocated %.1f times per op, want 0", allocs)
	}
}

// TestDisjunctionZeroAllocAdaptive pins the disjunction paths a SQL front end
// drives per statement: against an AdaptiveIndex, ExecuteOrContext and a
// limited SelectOrContext under a cancelable context allocate nothing in
// steady state (pooled decomposition, control, and cursor; the generation is
// pinned without boxing).
func TestDisjunctionZeroAllocAdaptive(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	fx := newTypedFixture(t, 20_000, 31)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := unmerged(t, idx)
	or := []Query{
		fx.schema.Where().WithIntRange("ts", 100, 300).Query(),
		fx.schema.Where().WithIntRange("ts", 5000, 5300).Query(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cnt := NewCount()
	run := func() {
		cnt.Reset()
		if _, err := ExecuteOrContext(ctx, a, or, cnt); err != nil {
			panic(err)
		}
		rows, _, err := fx.schema.SelectOrContext(ctx, a, or, &QueryOptions{Limit: 10}, "ts")
		if err != nil {
			panic(err)
		}
		rows.Close()
	}
	// Fill the workload reservoir first: sampling allocates while it grows
	// and recycles Range storage once full.
	for i := 0; i < 300; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("ExecuteOrContext + limited SelectOrContext allocated %.1f times per op, want 0", allocs)
	}
}

// TestSelectContextLimitPushdown pins the acceptance criterion: a LIMIT k
// select scans strictly fewer rows than the unlimited select (asserted via
// Stats), returns exactly k rows, and — on the deterministic sequential
// path — returns the first k rows of the unlimited result.
func TestSelectContextLimitPushdown(t *testing.T) {
	fx := newTypedFixture(t, 50_000, 33)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "nyc").Query()
	full, fullSt := idx.Select(q, "ts")
	fullIDs := make([]int64, 0, full.Len())
	for full.Next() {
		fullIDs = append(fullIDs, full.RowID())
	}
	full.Close()
	if len(fullIDs) <= 10 {
		t.Fatalf("fixture query matches only %d rows", len(fullIDs))
	}

	const k = 10
	rows, st, err := idx.SelectContext(context.Background(), q, &QueryOptions{Limit: k}, "ts")
	if err != nil {
		t.Fatalf("limited SelectContext err = %v (a satisfied limit is success)", err)
	}
	if rows.Len() != k {
		t.Fatalf("LIMIT %d returned %d rows", k, rows.Len())
	}
	if st.Scanned >= fullSt.Scanned {
		t.Fatalf("LIMIT %d scanned %d rows, not fewer than unlimited %d", k, st.Scanned, fullSt.Scanned)
	}
	for i := 0; rows.Next(); i++ {
		if rows.RowID() != fullIDs[i] {
			t.Fatalf("limited row %d has id %d, want prefix id %d", i, rows.RowID(), fullIDs[i])
		}
	}
	rows.Close()

	// A limit larger than the result set returns everything with no error.
	rows, _, err = idx.SelectContext(context.Background(), q, &QueryOptions{Limit: len(fullIDs) + 100}, "ts")
	if err != nil || rows.Len() != len(fullIDs) {
		t.Fatalf("oversized limit returned %d rows (err %v), want %d", rows.Len(), err, len(fullIDs))
	}
	rows.Close()
}

// TestSelectContextLimitAcrossDelta pins the shared budget across the base
// index and the pending insert log: base rows fill the limit first, and a
// limit inside the base row count never scans the delta.
func TestSelectContextLimitAcrossDelta(t *testing.T) {
	fx := newTypedFixture(t, 10_000, 35)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := unmerged(t, idx)
	// Insert rows that all match the probe query.
	enc, err := fx.schema.EncodeRow(int64(50), 5.00, "nyc", time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	const added = 64
	for i := 0; i < added; i++ {
		if err := d.Insert(enc); err != nil {
			t.Fatal(err)
		}
	}
	q := fx.schema.Where().WithStringEquals("city", "nyc").Query()
	all, _, err := d.SelectContext(context.Background(), q, nil, "city")
	if err != nil {
		t.Fatal(err)
	}
	total := all.Len()
	all.Close()
	baseRows := int64(idx.Table().NumRows())

	const k = 5 // well inside the base matches
	rows, _, err := d.SelectContext(context.Background(), q, &QueryOptions{Limit: k}, "city")
	if err != nil || rows.Len() != k {
		t.Fatalf("delta LIMIT %d returned %d rows (err %v)", k, rows.Len(), err)
	}
	for rows.Next() {
		if rows.RowID() >= baseRows {
			t.Fatalf("limit satisfiable from base delivered delta row id %d", rows.RowID())
		}
	}
	rows.Close()

	// A limit past the base matches draws the remainder from the delta.
	big := total - added/2
	rows, _, err = d.SelectContext(context.Background(), q, &QueryOptions{Limit: big}, "city")
	if err != nil || rows.Len() != big {
		t.Fatalf("delta-spanning LIMIT %d returned %d rows (err %v)", big, rows.Len(), err)
	}
	rows.Close()
}

// cancelOnDeliver is a Count that cancels a context on its first delivery;
// clones share the trigger so the morsel engine's workers race it safely.
type cancelOnDeliver struct {
	n      int64
	cancel context.CancelFunc
	once   *sync.Once
}

func (c *cancelOnDeliver) fire() { c.once.Do(c.cancel) }

func (c *cancelOnDeliver) Reset() { c.n = 0 }

func (c *cancelOnDeliver) AddBlock(_ *Table, _ int, sel *BlockBitmap) {
	c.fire()
	c.n += int64(sel.Count())
}

func (c *cancelOnDeliver) AddExactRange(_ *Table, start, end int) {
	c.fire()
	c.n += int64(end - start)
}

func (c *cancelOnDeliver) Result() int64 { return c.n }

func (c *cancelOnDeliver) CloneEmpty() query.Mergeable {
	return &cancelOnDeliver{cancel: c.cancel, once: c.once}
}

func (c *cancelOnDeliver) Merge(o query.Mergeable) { c.n += o.(*cancelOnDeliver).n }

// TestExecuteContextCancelMidScanParallel cancels a context from inside the
// first aggregator delivery of a forced-parallel execution: the morsel
// engine must observe the stop at claim boundaries, drain the remaining
// morsels without scanning them, merge every partial cleanly (the race
// detector guards the shared state), leak no goroutines, and report the
// sentinel with partial stats.
func TestExecuteContextCancelMidScanParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fx := newTypedFixture(t, 200_000, 37)
	// A tiny cutover forces the morsel engine for the broad query below.
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().Query() // unfiltered: the whole table matches

	// Warm the worker pool so resident pool goroutines are part of the
	// baseline, then measure goroutines around the canceled runs.
	warm := NewCount()
	idx.Execute(q, warm)
	total := warm.Result()
	baseline := runtime.NumGoroutine()

	for trial := 0; trial < 5; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		agg := &cancelOnDeliver{cancel: cancel, once: &sync.Once{}}
		st, err := idx.ExecuteContext(ctx, q, agg)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("trial %d: mid-scan cancel err = %v, want ErrCanceled", trial, err)
		}
		if st.Scanned >= total {
			t.Fatalf("trial %d: canceled execution scanned all %d rows", trial, st.Scanned)
		}
		if agg.Result() > st.Matched || agg.Result() == 0 {
			t.Fatalf("trial %d: partial aggregate %d inconsistent with matched %d", trial, agg.Result(), st.Matched)
		}
	}

	// The persistent pool keeps its resident workers; nothing beyond them
	// may linger once the canceled jobs drained.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled parallel executions: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdaptiveExecuteContextCancelDuringRelearn hammers ExecuteContext with
// mixed canceled/live contexts while a background relearn builds and swaps
// the epoch. Under -race this pins the swap-safety of the control path: the
// sentinel comes back for canceled calls, completed calls stay exact across
// the swap, and canceled partials never corrupt shared state.
func TestAdaptiveExecuteContextCancelDuringRelearn(t *testing.T) {
	idx, ds, queries := buildSmall(t)
	a := NewAdaptiveIndex(idx, &AdaptiveConfig{Build: &Options{GDSteps: 2, QuerySampleSize: 10}})
	defer a.Close()
	nd := ds.Table.NumCols()
	// A full-domain filter: every row matches, so completed counts are
	// exactly the table size, while the filter keeps the sampled workload
	// well-formed for the background relearn.
	probe := NewQuery(nd).WithRange(0, NegInf, PosInf)
	want := int64(ds.Table.NumRows())
	for _, q := range queries[:8] {
		a.Execute(q, NewCount()) // seed the workload sample
	}

	var wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				agg := NewCount()
				if g%2 == 0 && i%3 == 0 {
					// Cancel mid-flight from a racing goroutine.
					ctx, cancel := context.WithCancel(context.Background())
					go cancel()
					_, err := a.ExecuteContext(ctx, probe, agg)
					if err == nil && agg.Result() != want {
						wrong.Add(1)
					}
					cancel()
					continue
				}
				st, err := a.ExecuteContext(context.Background(), probe, agg)
				if err != nil || agg.Result() != want || st.Matched != want {
					wrong.Add(1)
				}
			}
		}(g)
	}
	if !a.TriggerRelearn() {
		t.Fatal("TriggerRelearn did not start")
	}
	a.Wait()
	close(stop)
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d executions returned wrong results across the relearn swap", wrong.Load())
	}
	// At least the forced relearn must have landed; the live query stream
	// may legitimately trigger further drift relearns after the swap.
	if st := a.Stats(); st.Relearns < 1 {
		t.Fatalf("relearns = %d, want >= 1 (last error %v)", st.Relearns, st.LastError)
	}
	a.Wait() // drain any follow-on drift relearn before the final exact check
	// After the dust settles the index still answers exactly.
	agg := NewCount()
	if _, err := a.ExecuteContext(context.Background(), probe, agg); err != nil || agg.Result() != want {
		t.Fatalf("post-swap count = %d (err %v), want %d", agg.Result(), err, want)
	}
}

// TestSelectOrContextSharedLimit pins the global LIMIT budget across the
// disjoint pieces of an OR: the union never exceeds the limit.
func TestSelectOrContextSharedLimit(t *testing.T) {
	fx := newTypedFixture(t, 20_000, 41)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	or := []Query{
		fx.schema.Where().WithStringEquals("city", "nyc").Query(),
		fx.schema.Where().WithStringEquals("city", "boston").Query(),
	}
	full, fullSt := fx.schema.SelectOr(idx, or, "city")
	totalRows := full.Len()
	full.Close()
	const k = 7
	rows, st, err := fx.schema.SelectOrContext(context.Background(), idx, or, &QueryOptions{Limit: k}, "city")
	if err != nil {
		t.Fatalf("SelectOrContext err = %v", err)
	}
	if rows.Len() != k {
		t.Fatalf("OR LIMIT %d returned %d rows (full union %d)", k, rows.Len(), totalRows)
	}
	if st.Scanned >= fullSt.Scanned {
		t.Fatalf("OR LIMIT scanned %d, not fewer than unlimited %d", st.Scanned, fullSt.Scanned)
	}
	rows.Close()
}

// TestExecuteBatchContextCancel checks that one cancellation stops a whole
// batch: stats for unstarted queries stay zero and the sentinel is shared.
func TestExecuteBatchContextCancel(t *testing.T) {
	idx, _, queries := buildSmall(t)
	// Lead the batch with a query that definitely delivers rows, so the
	// canceling aggregator's trigger fires.
	for i, q := range queries {
		probe := NewCount()
		if idx.Execute(q, probe); probe.Result() > 0 {
			queries[0], queries[i] = queries[i], queries[0]
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	aggs := make([]Aggregator, len(queries))
	canceler := &cancelOnDeliver{cancel: cancel, once: &sync.Once{}}
	aggs[0] = canceler
	for i := 1; i < len(aggs); i++ {
		aggs[i] = NewCount()
	}
	stats, err := idx.ExecuteBatchContext(ctx, queries, aggs)
	cancel()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch cancel err = %v", err)
	}
	if len(stats) != len(queries) {
		t.Fatalf("batch returned %d stats for %d queries", len(stats), len(queries))
	}
}

// TestControlIndexBaselines runs a mid-scan cancellation through every
// baseline's ExecuteContext: each must stop early with the sentinel rather
// than scanning to completion.
func TestControlIndexBaselines(t *testing.T) {
	_, ds, _ := buildSmall(t)
	total := int64(ds.Table.NumRows())
	// A near-full range on a non-leading dimension: almost every row
	// matches, but no baseline can treat the whole table as one contained
	// exact range, so deliveries happen page by page and the cancel fired
	// by the first delivery must cut the scan short.
	col := ds.Cols[1]
	minV, maxV := col[0], col[0]
	for _, v := range col {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV == maxV {
		t.Fatal("fixture column 1 is constant")
	}
	probe := NewQuery(ds.Table.NumCols()).WithRange(1, minV, maxV-1)
	for _, kind := range Baselines() {
		b, err := BuildBaseline(kind, ds.Table, BaselineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		agg := &cancelOnDeliver{cancel: cancel, once: &sync.Once{}}
		st, err := b.ExecuteContext(ctx, probe, agg)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: mid-scan cancel err = %v, want ErrCanceled", b.Name(), err)
		}
		if st.Scanned >= total {
			t.Fatalf("%s: canceled scan visited all %d rows", b.Name(), st.Scanned)
		}
	}
}

// TestRowsMisuseDeterministic pins the cursor misuse contract: accessors
// before the first Next, after the cursor is exhausted, and after Close
// return zero values deterministically instead of touching pooled memory.
func TestRowsMisuseDeterministic(t *testing.T) {
	fx := newTypedFixture(t, 2_000, 43)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	q := fx.schema.Where().WithStringEquals("city", "nyc").Query()
	rows, _ := idx.Select(q, "ts", "fare", "city", "pickup")
	if rows.Len() == 0 {
		t.Fatal("fixture query matched nothing")
	}
	assertZero := func(stage string) {
		t.Helper()
		if v := rows.Int64(0); v != 0 {
			t.Fatalf("%s: Int64 = %d, want 0", stage, v)
		}
		if v := rows.Float64(1); v != 0 {
			t.Fatalf("%s: Float64 = %v, want 0", stage, v)
		}
		if v := rows.String(2); v != "" {
			t.Fatalf("%s: String = %q, want empty", stage, v)
		}
		if v := rows.Time(3); !v.IsZero() {
			t.Fatalf("%s: Time = %v, want zero", stage, v)
		}
		if v := rows.Value(0); v != nil {
			t.Fatalf("%s: Value = %v, want nil", stage, v)
		}
		if v := rows.RowID(); v != 0 {
			t.Fatalf("%s: RowID = %d, want 0", stage, v)
		}
	}
	assertZero("before first Next")
	n := 0
	for rows.Next() {
		if rows.String(2) != "nyc" {
			t.Fatal("live row decoded wrong")
		}
		n++
	}
	if n != rows.Len() {
		t.Fatalf("iterated %d rows, Len %d", n, rows.Len())
	}
	assertZero("after exhaustion")
	if rows.Next() {
		t.Fatal("Next after exhaustion returned true")
	}
	rows.Close()
	if rows.Next() {
		t.Fatal("Next after Close returned true")
	}
	assertZero("after Close")
	if rows.Len() != 0 || rows.Columns() != nil {
		t.Fatalf("closed cursor Len=%d Columns=%v, want 0/nil", rows.Len(), rows.Columns())
	}
	if got := rows.OrderBy("fare", 3); got != rows {
		t.Fatal("OrderBy on closed cursor is not a no-op")
	}
	rows.Close() // immediate double Close stays a no-op
}

// TestSelectContextForeignIndexLimit pins the fallback contract: an Index
// implementation from outside this package (no ControlIndex path, no
// SelectContext of its own) still honors QueryOptions.Limit — the budget is
// enforced at the aggregator boundary even though its scan cannot be
// stopped early.
func TestSelectContextForeignIndexLimit(t *testing.T) {
	fx := newTypedFixture(t, 5_000, 47)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	foreign := indexOnly{idx} // hides every control path
	q := fx.schema.Where().WithStringEquals("city", "nyc").Query()
	full, _, err := fx.schema.SelectContext(context.Background(), foreign, q, nil, "city")
	if err != nil {
		t.Fatal(err)
	}
	total := full.Len()
	full.Close()
	if total <= 3 {
		t.Fatalf("fixture query matches only %d rows", total)
	}
	rows, _, err := fx.schema.SelectContext(context.Background(), foreign, q, &QueryOptions{Limit: 3}, "city")
	if err != nil {
		t.Fatalf("foreign-index limited select err = %v", err)
	}
	if rows.Len() != 3 {
		t.Fatalf("foreign-index LIMIT 3 returned %d rows (full %d)", rows.Len(), total)
	}
	for rows.Next() {
		if rows.String(0) != "nyc" {
			t.Fatal("limited row decoded wrong")
		}
	}
	rows.Close()
}
