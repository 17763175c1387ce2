package flood

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"flood/internal/dataset"
	"flood/internal/workload"
)

// shardedUnderTest builds a sharded stack next to a flat reference index
// over the same data, with cheap build options and the drift monitor
// quiesced so nothing rebuilds behind the test's back.
func shardedUnderTest(t *testing.T, shards int) (*ShardedIndex, *Flood, *dataset.Dataset, []Query) {
	t.Helper()
	ds := dataset.Sales(8000, 401)
	queries := workload.Standard(ds, 30, 402)
	bopts := &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 403}
	flat, err := Build(ds.Table, queries, bopts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(ds.Table, queries, &ShardedOptions{
		Shards:   shards,
		Dim:      -1,
		Build:    bopts,
		Adaptive: &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, flat, ds, queries
}

// TestShardedFanoutEquivalence pins the core fan-out property: every
// workload query returns exactly what the flat engine returns, whether it
// prunes to one shard or fans across several, for counts and column sums.
func TestShardedFanoutEquivalence(t *testing.T) {
	s, flat, ds, queries := shardedUnderTest(t, 4)
	if s.NumShards() < 2 {
		t.Fatalf("expected multiple shards, got %d", s.NumShards())
	}
	if s.NumRows() != ds.Table.NumRows() {
		t.Fatalf("shards hold %d rows, table has %d", s.NumRows(), ds.Table.NumRows())
	}
	broad := NewQuery(ds.Table.NumCols()) // unbounded: every shard survives
	for i, q := range append(queries, broad) {
		want := countOf(t, flat, q)
		if got := countOf(t, s, q); got != want {
			t.Errorf("query %d: sharded count %d, flat %d", i, got, want)
		}
		wa, ga := NewSum(3), NewSum(3) // sum(quantity)
		flat.Execute(q, wa)
		s.Execute(q, ga)
		if ga.Result() != wa.Result() {
			t.Errorf("query %d: sharded sum %d, flat %d", i, ga.Result(), wa.Result())
		}
	}
}

// TestShardedFanoutPruning checks that a query contained in one shard's key
// range runs only that shard: the other shards' query counters stay flat.
func TestShardedFanoutPruning(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("column collapsed to one shard")
	}
	// A query strictly inside shard 0 on the split dimension.
	q := NewQuery(ds.Table.NumCols()).WithRange(s.SplitDim(), NegInf, splits[0]-1)
	before := s.ShardStats()
	s.Execute(q, NewCount())
	after := s.ShardStats()
	if got := after[0].Queries - before[0].Queries; got != 1 {
		t.Errorf("target shard served %d queries, want 1", got)
	}
	for i := 1; i < len(after); i++ {
		if after[i].Queries != before[i].Queries {
			t.Errorf("pruned shard %d served a query", i)
		}
	}
}

// TestShardedShardStats checks the skew diagnostic: per-shard row counts
// cover the table exactly and no shard is wildly imbalanced on the fitted
// splits.
func TestShardedShardStats(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	stats := s.ShardStats()
	total := 0
	for _, st := range stats {
		total += st.Rows
	}
	if total != ds.Table.NumRows() {
		t.Fatalf("shard rows sum to %d, table has %d", total, ds.Table.NumRows())
	}
	even := float64(ds.Table.NumRows()) / float64(len(stats))
	for _, st := range stats {
		if float64(st.Rows) > 3*even {
			t.Errorf("shard %d holds %d rows, even share is %.0f — splits badly imbalanced", st.Shard, st.Rows, even)
		}
	}
}

// TestShardedSelectStrides checks the id contract of the sharded Select:
// collected ids decode to the right tuples, ids carry their owning shard in
// the high bits, and DeleteRows accepts them round-trip.
func TestShardedSelectStrides(t *testing.T) {
	s, flat, ds, _ := shardedUnderTest(t, 4)
	q := NewQuery(ds.Table.NumCols()).WithRange(5, 100, 400) // date slice spanning shards
	want := countOf(t, flat, q)

	rows, st := s.Select(q, "order_id", "date")
	if int64(rows.Len()) != want || st.Matched != want {
		t.Fatalf("Select matched %d rows (stats %d), flat says %d", rows.Len(), st.Matched, want)
	}
	dim := s.SplitDim()
	seenShards := map[int]bool{}
	ids := make([]int64, 0, rows.Len())
	for rows.Next() {
		if d := rows.Int64(1); d < 100 || d > 400 {
			t.Fatalf("selected row has date %d outside [100, 400]", d)
		}
		id := rows.RowID()
		sh := int(id >> shardStrideBits)
		seenShards[sh] = true
		// The id's high bits must agree with routing the row's split value.
		if got := s.router.Shard(rows.Int64(0)); dim == 0 && got != sh {
			t.Fatalf("id %d claims shard %d, split value routes to %d", id, sh, got)
		}
		ids = append(ids, id)
	}
	rows.Close()
	if len(seenShards) < 2 {
		t.Fatalf("date slice touched %d shard(s); expected a cross-shard result", len(seenShards))
	}

	// Deleting by the collected ids must remove exactly those rows.
	n, err := s.DeleteRows(ids)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("DeleteRows removed %d rows, want %d", n, want)
	}
	if got := countOf(t, s, q); got != 0 {
		t.Fatalf("%d rows still match after deleting the full result", got)
	}
}

// TestShardedFanoutLimit checks the shared LIMIT budget: `LIMIT n` over a
// query fanned across every shard delivers exactly n rows and stops
// scanning long before the full result.
func TestShardedFanoutLimit(t *testing.T) {
	s, flat, ds, _ := shardedUnderTest(t, 4)
	q := NewQuery(ds.Table.NumCols()) // matches all 8000 rows across all shards
	full := countOf(t, flat, q)

	rows, st, err := s.SelectContext(context.Background(), q, &QueryOptions{Limit: 10})
	defer rows.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 10 {
		t.Fatalf("LIMIT 10 delivered %d rows", rows.Len())
	}
	if st.Matched > 10 {
		t.Fatalf("limit delivered %d matches past the budget", st.Matched)
	}
	if st.Scanned >= full {
		t.Fatalf("LIMIT 10 scanned all %d rows; the budget did not stop the fan-out", st.Scanned)
	}
}

// TestShardedExecuteOrEquivalence runs disjunctions through the sharded
// engine and compares with the flat engine, for counts and for the SelectOr
// row set (decoded values, not ids — the id spaces differ by design).
func TestShardedExecuteOrEquivalence(t *testing.T) {
	s, flat, ds, _ := shardedUnderTest(t, 4)
	nd := ds.Table.NumCols()
	ors := [][]Query{
		{NewQuery(nd).WithRange(5, 0, 50), NewQuery(nd).WithRange(5, 700, 1100)},
		{NewQuery(nd).WithRange(0, 0, 2000), NewQuery(nd).WithRange(0, 1500, 9000)}, // overlapping, split dim
		{NewQuery(nd).WithRange(1, 0, 3), NewQuery(nd).WithRange(5, 100, 200)},
	}
	for i, queries := range ors {
		wa, ga := NewCount(), NewCount()
		ExecuteOr(flat, queries, wa)
		s.ExecuteOr(queries, ga)
		if ga.Result() != wa.Result() {
			t.Errorf("or %d: sharded count %d, flat %d", i, ga.Result(), wa.Result())
		}
	}

	// Row-level check through the schema-less value route: each collected id
	// decodes to a tuple matching at least one disjunct, no duplicates.
	queries := ors[1]
	ra, _ := selectOrSharded(s, queries)
	defer ra.Close()
	seen := map[int64]bool{}
	for ra.Next() {
		id := ra.RowID()
		if seen[id] {
			t.Fatalf("id %d delivered twice from the OR", id)
		}
		seen[id] = true
		v := ra.Int64(0)
		if !(v >= 0 && v <= 9000) {
			t.Fatalf("or row has order_id %d outside both disjuncts", v)
		}
	}
	wa := NewCount()
	ExecuteOr(flat, queries, wa)
	if int64(len(seen)) != wa.Result() {
		t.Fatalf("or select delivered %d rows, flat count is %d", len(seen), wa.Result())
	}
}

// selectOrSharded drives the sharded OR select the way Schema.SelectOr
// would: rows collected shard-outer into a striped id space.
func selectOrSharded(s *ShardedIndex, queries []Query) (*Rows, Stats) {
	r, st, _ := s.selectOr(context.Background(), queries, nil, projection{})
	return r, st
}

// TestShardedBatchEquivalence checks the batched paths (plain and context)
// against per-query execution.
func TestShardedBatchEquivalence(t *testing.T) {
	s, flat, _, queries := shardedUnderTest(t, 4)
	batch := queries[:8]
	aggs := make([]Aggregator, len(batch))
	for i := range aggs {
		aggs[i] = NewCount()
	}
	s.ExecuteBatch(batch, aggs)
	for i, q := range batch {
		if want := countOf(t, flat, q); aggs[i].Result() != want {
			t.Errorf("batch query %d: count %d, flat %d", i, aggs[i].Result(), want)
		}
	}
	for i := range aggs {
		aggs[i] = NewCount()
	}
	if _, err := s.ExecuteBatchContext(context.Background(), batch, aggs); err != nil {
		t.Fatal(err)
	}
	for i, q := range batch {
		if want := countOf(t, flat, q); aggs[i].Result() != want {
			t.Errorf("batch-context query %d: count %d, flat %d", i, aggs[i].Result(), want)
		}
	}
}

// TestShardedInsertRouting inserts rows on both sides of a split boundary
// and at the boundary value itself, then checks each landed in the shard
// the router names and that queries see all of them.
func TestShardedInsertRouting(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("column collapsed to one shard")
	}
	dim := s.SplitDim()
	boundary := splits[0]
	probes := []int64{boundary - 1, boundary, boundary + 1}
	rng := rand.New(rand.NewSource(404))
	base := make([]int, s.NumShards())
	for i, st := range s.ShardStats() {
		base[i] = st.Rows
	}
	// Stamp a marker on a small-domain column that is not the split
	// dimension, so routing by the probe value never clobbers it.
	markerCol := ds.ColumnIndex("quantity")
	if markerCol == dim {
		markerCol = ds.ColumnIndex("date")
	}
	for _, v := range probes {
		row := markerRow(ds, rng, markerCol, 0)
		row[dim] = v
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	marker := NewQuery(ds.Table.NumCols()).WithRange(markerCol, 5000, 6000)
	if got := countOf(t, s, marker); got != int64(len(probes)) {
		t.Fatalf("marker query found %d inserted rows, want %d", got, len(probes))
	}
	for _, v := range probes {
		sh := s.router.Shard(v)
		got := s.Shard(sh).LiveRows() - base[sh]
		if got < 1 {
			t.Errorf("value %d routed to shard %d but its row count did not grow", v, sh)
		}
	}
	// Boundary semantics: the split point itself belongs to the upper shard.
	if s.router.Shard(boundary) != s.router.Shard(boundary+1) {
		t.Error("split value and its successor landed in different shards")
	}
	if s.router.Shard(boundary-1) == s.router.Shard(boundary) {
		t.Error("split value did not open a new shard")
	}
}

// TestShardedDeleteUpdate exercises predicate deletes across shards and the
// two update flavors: in-place (split dimension untouched) and cross-shard
// (the assignment moves rows to another shard).
func TestShardedDeleteUpdate(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	nd := ds.Table.NumCols()
	dateCol := ds.ColumnIndex("date")
	dim := s.SplitDim()

	// Cross-shard predicate delete.
	slice := NewQuery(nd).WithRange(dateCol, 0, 30)
	want := countOf(t, s, slice)
	if want == 0 {
		t.Fatal("test slice matched nothing")
	}
	n, err := s.Delete(slice)
	if err != nil {
		t.Fatal(err)
	}
	if n != want || countOf(t, s, slice) != 0 {
		t.Fatalf("deleted %d of %d; %d remain", n, want, countOf(t, s, slice))
	}

	// In-place update: quantity is not the split dimension.
	qtyCol := ds.ColumnIndex("quantity")
	if qtyCol == dim {
		t.Fatalf("unexpected split dimension %d", dim)
	}
	slice2 := NewQuery(nd).WithRange(dateCol, 40, 60)
	cnt := countOf(t, s, slice2)
	upd, err := s.Update(slice2, []Assignment{{Col: qtyCol, Value: 777}})
	if err != nil {
		t.Fatal(err)
	}
	if upd != cnt {
		t.Fatalf("updated %d rows, want %d", upd, cnt)
	}
	check := NewQuery(nd).WithRange(dateCol, 40, 60).WithRange(qtyCol, 777, 777)
	if got := countOf(t, s, check); got != cnt {
		t.Fatalf("%d rows carry the updated quantity, want %d", got, cnt)
	}

	// Cross-shard move: reassign the split dimension into the last shard's
	// range; the rows must leave their old shards and be queryable at the
	// new value.
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("column collapsed to one shard")
	}
	target := splits[len(splits)-1] + 100_000
	slice3 := NewQuery(nd).WithRange(dateCol, 70, 90)
	cnt3 := countOf(t, s, slice3)
	if cnt3 == 0 {
		t.Fatal("move slice matched nothing")
	}
	moved, err := s.Update(slice3, []Assignment{{Col: dim, Value: target}})
	if err != nil {
		t.Fatal(err)
	}
	if moved != cnt3 {
		t.Fatalf("moved %d rows, want %d", moved, cnt3)
	}
	at := NewQuery(nd).WithRange(dateCol, 70, 90).WithRange(dim, target, target)
	if got := countOf(t, s, at); got != cnt3 {
		t.Fatalf("%d rows live at the new split value, want %d", got, cnt3)
	}
	// And they must physically live in the owning shard.
	lastShard := s.router.Shard(target)
	if got := countOf(t, s.Shard(lastShard), at); got != cnt3 {
		t.Fatalf("owning shard sees %d moved rows, want %d", got, cnt3)
	}
	if s.LiveRows() != ds.Table.NumRows()-int(want) {
		t.Fatalf("live rows %d after delete+updates, want %d", s.LiveRows(), ds.Table.NumRows()-int(want))
	}
}

// TestShardedRelearnIsolation is the shard-local maintenance acceptance
// test: a forced relearn in one shard swaps only that shard's epoch while
// concurrent readers hammer every shard (run under -race). Every other
// shard's epoch — and the data everywhere — stays untouched.
func TestShardedRelearnIsolation(t *testing.T) {
	s, flat, ds, queries := shardedUnderTest(t, 4)
	if s.NumShards() < 2 {
		t.Skip("need multiple shards")
	}
	before := make([]int64, s.NumShards())
	for i := range before {
		before[i] = s.Shard(i).Epoch()
	}
	broad := NewQuery(ds.Table.NumCols())
	want := countOf(t, flat, broad)
	// Prime every shard's workload reservoir so the forced relearn has a
	// training sample to work from.
	if got := countOf(t, s, broad); got != want {
		t.Fatalf("broad count %d before relearn, want %d", got, want)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				s.Execute(q, NewCount())
				if got := countOf(t, s, broad); got != want {
					t.Errorf("broad count %d during relearn, want %d", got, want)
					return
				}
			}
		}(w)
	}

	target := s.Shard(1)
	if !target.TriggerRelearn() {
		t.Fatal("forced relearn did not start")
	}
	target.Wait()
	close(stop)
	wg.Wait()

	for i := 0; i < s.NumShards(); i++ {
		got := s.Shard(i).Epoch()
		if i == 1 {
			if got != before[i]+1 {
				t.Errorf("relearned shard epoch went %d -> %d, want +1", before[i], got)
			}
			continue
		}
		if got != before[i] {
			t.Errorf("shard %d epoch moved %d -> %d during shard 1's relearn", i, before[i], got)
		}
	}
	if st := target.Stats(); st.Relearns != 1 || st.LastError != nil {
		t.Fatalf("target shard relearns = %d, err = %v", st.Relearns, st.LastError)
	}
	if got := countOf(t, s, broad); got != want {
		t.Fatalf("broad count %d after relearn, want %d", got, want)
	}
}

// TestShardedSingleShardAllocs pins the no-merge fast path: an aggregate
// query contained in one shard must not allocate — same bar as the flat
// engine's steady-state Execute.
func TestShardedSingleShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside Execute")
	}
	s, _, ds, _ := shardedUnderTest(t, 4)
	splits := s.Splits()
	if len(splits) == 0 {
		t.Skip("column collapsed to one shard")
	}
	q := NewQuery(ds.Table.NumCols()).WithRange(s.SplitDim(), NegInf, splits[0]-1)
	agg := NewCount()
	// Fill the target shard's workload reservoir first: sampling allocates
	// while the reservoir grows, and recycles Range storage once full.
	for i := 0; i < 520; i++ {
		agg.Reset()
		s.Execute(q, agg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		agg.Reset()
		s.Execute(q, agg)
	}); avg != 0 {
		t.Fatalf("single-shard Execute allocates %.1f times per run, want 0", avg)
	}
}

// TestShardedFanoutZeroAllocs pins the fan-out path the way the test above
// pins delegation: a warmed COUNT or SUM that every shard survives allocates
// nothing — no clones slice, stats slice or closure per query. AllocsPerRun
// pins GOMAXPROCS to 1, where the caller runs every shard itself; with two
// procs a pool helper takes shards too, so the mallocs are also counted
// process-wide there, as TestParallelRefineZeroAllocs does.
func TestShardedFanoutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside Execute")
	}
	s, _, ds, _ := shardedUnderTest(t, 4)
	q := NewQuery(ds.Table.NumCols()).WithRange(ds.ColumnIndex("quantity"), 1, 3)
	if first, last := s.prune(q); first >= last {
		t.Fatalf("query reaches shards [%d, %d], want several", first, last)
	}
	for _, agg := range []Aggregator{NewCount(), NewSum(ds.ColumnIndex("quantity"))} {
		run := func() {
			agg.Reset()
			s.Execute(q, agg)
		}
		// Fill every shard's workload reservoir first (see above).
		for i := 0; i < 520; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(100, run); avg > 0.1 {
			t.Errorf("%T fan-out allocates %.2f times per run at GOMAXPROCS=1, want 0", agg, avg)
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			if avg := float64(after.Mallocs-before.Mallocs) / runs; avg > 0.1 {
				t.Errorf("%T fan-out allocates %.2f times per run at GOMAXPROCS=2, want 0", agg, avg)
			}
		}()
	}
}

// TestShardedFanoutStatsWallTime pins what a fanned-out query's Stats say
// about time: the shards' counts add up, but their times overlap once the
// shards run concurrently, so Total is the fan-out's wall time — never more
// than the call took — and no phase time exceeds it.
func TestShardedFanoutStatsWallTime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	ds := dataset.Sales(200_000, 431)
	queries := workload.Standard(ds, 20, 432)
	s, err := NewSharded(ds.Table, queries, &ShardedOptions{
		Shards:   4,
		Build:    &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 433},
		Adaptive: &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	qty := ds.ColumnIndex("quantity")
	q := NewQuery(ds.Table.NumCols()).WithRange(qty, 1, 40)
	if first, last := s.prune(q); first >= last {
		t.Fatalf("query reaches shards [%d, %d], want several", first, last)
	}
	var scanned int64
	for i := 0; i < 30; i++ {
		agg := NewSum(qty)
		t0 := time.Now()
		st := s.Execute(q, agg)
		call := time.Since(t0)
		if st.Total > call {
			t.Fatalf("run %d: Total %v exceeds the call's %v", i, st.Total, call)
		}
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"IndexTime", st.IndexTime}, {"ProjectTime", st.ProjectTime}, {"RefineTime", st.RefineTime}, {"ScanTime", st.ScanTime}} {
			if p.d > st.Total {
				t.Fatalf("run %d: %s %v exceeds Total %v", i, p.name, p.d, st.Total)
			}
		}
		if i > 0 && st.Scanned != scanned {
			t.Fatalf("run %d: scanned %d rows, run 0 scanned %d", i, st.Scanned, scanned)
		}
		scanned = st.Scanned
	}
}

// TestShardedExplicitSplits covers explicit split points, including ones
// that leave a shard empty: building, querying, and inserting into the
// empty shard must all work.
func TestShardedExplicitSplits(t *testing.T) {
	ds := dataset.Sales(3000, 405)
	queries := workload.Standard(ds, 20, 406)
	// order_id spans [0, ~9000); 1<<40 opens a shard holding nothing.
	s, err := NewSharded(ds.Table, queries, &ShardedOptions{
		Dim:    0,
		Splits: []int64{3000, 1 << 40},
		Build:  &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 407},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", s.NumShards())
	}
	if rows := s.ShardStats()[2].Rows; rows != 0 {
		t.Fatalf("top shard holds %d rows, want 0", rows)
	}
	broad := NewQuery(ds.Table.NumCols())
	if got := countOf(t, s, broad); got != int64(ds.Table.NumRows()) {
		t.Fatalf("broad count %d, want %d", got, ds.Table.NumRows())
	}
	row := make([]int64, ds.Table.NumCols())
	row[0] = 1 << 41 // routes to the empty top shard
	if err := s.Insert(row); err != nil {
		t.Fatal(err)
	}
	if got := s.Shard(2).LiveRows(); got != 1 {
		t.Fatalf("empty shard has %d rows after insert, want 1", got)
	}
	if got := countOf(t, s, broad); got != int64(ds.Table.NumRows())+1 {
		t.Fatalf("broad count %d after insert, want %d", got, ds.Table.NumRows()+1)
	}
}

func TestShardedRejectsBadOptions(t *testing.T) {
	ds := dataset.Sales(500, 408)
	queries := workload.Standard(ds, 10, 409)
	if _, err := NewSharded(ds.Table, queries, &ShardedOptions{Dim: 99}); err == nil {
		t.Error("out-of-range split dimension accepted")
	}
	if _, err := NewSharded(ds.Table, queries, &ShardedOptions{Dim: 0, Splits: []int64{5, 5}}); err == nil {
		t.Error("duplicate splits accepted")
	}
}

// TestShardedEpochMonotonic checks the aggregate Epoch counter: it moves
// exactly when some shard swaps and by that shard's delta.
func TestShardedEpochMonotonic(t *testing.T) {
	s, _, ds, _ := shardedUnderTest(t, 4)
	if s.NumShards() < 2 {
		t.Skip("need multiple shards")
	}
	s.Execute(NewQuery(ds.Table.NumCols()), NewCount()) // seed the reservoirs
	e0 := s.Epoch()
	if !s.Shard(0).TriggerRelearn() {
		t.Fatal("relearn did not start")
	}
	s.Shard(0).Wait()
	if got := s.Epoch(); got != e0+1 {
		t.Fatalf("Epoch went %d -> %d after one shard swap, want +1", e0, got)
	}
}

func ExampleNewSharded() {
	ds := dataset.Sales(2000, 1)
	queries := workload.Standard(ds, 10, 2)
	s, _ := NewSharded(ds.Table, queries, &ShardedOptions{Shards: 4, Dim: 0,
		Build: &Options{CalibrationLayouts: 2, GDSteps: 3, Seed: 3}})
	defer s.Close()
	agg := NewCount()
	s.Execute(NewQuery(ds.Table.NumCols()).WithRange(0, 0, 1000), agg)
	fmt.Println(agg.Result() > 0)
	// Output: true
}
