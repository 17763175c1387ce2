package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"flood/internal/query"
)

// TestTombstoneMaskedScanZeroAllocs asserts the delete-path perf contract:
// masking tombstones costs one AND-NOT per block word and zero heap
// allocations — the sequential scan stays allocation-free at any density.
func TestTombstoneMaskedScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside Execute")
	}
	tbl, _ := makeData(t, 20000, 4, 78)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{8, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dead := make([]int, 0, 2000)
	for i := 0; i < 2000; i++ {
		dead = append(dead, rng.Intn(20000))
	}
	if idx.DeleteRows(dead) == 0 {
		t.Fatal("DeleteRows marked nothing")
	}
	queries := []query.Query{
		query.NewQuery(4).WithRange(0, 0, 400).WithRange(2, 0, 1000),
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
			t.Errorf("query %d: %.1f allocs per masked Execute, want 0", qi, allocs)
		}
	}
}

// TestTombstoneCompactionRestoresParity pins the compaction contract: after
// Rebuild, the tombstone set is empty (scans take the unmasked fast path
// again), the dead rows are physically gone, and every query answer is
// unchanged.
func TestTombstoneCompactionRestoresParity(t *testing.T) {
	tbl, _ := makeData(t, 10000, 4, 79)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{8, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	dead := make([]int, 0, 100)
	for i := 0; i < 100; i++ { // ~1% density
		dead = append(dead, rng.Intn(10000))
	}
	marked := idx.DeleteRows(dead)
	queries := []query.Query{
		query.NewQuery(4).WithRange(0, 0, 400),
		query.NewQuery(4).WithRange(1, 0, 1<<40).WithRange(3, 0, 500),
		query.NewQuery(4),
	}
	before := make([]int64, len(queries))
	agg := query.NewCount()
	for i, q := range queries {
		agg.Reset()
		idx.Execute(q, agg)
		before[i] = agg.Result()
	}

	compact, err := idx.RebuildCompact(nil, idx.Tombstones(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if compact.Deleted() != 0 {
		t.Fatalf("rebuilt index carries %d tombstones, want 0", compact.Deleted())
	}
	if compact.Tombstones().Words() != nil {
		t.Fatal("rebuilt index still publishes a tombstone mask; scans would pay the AND-NOT for nothing")
	}
	if got, want := compact.Table().NumRows(), 10000-marked; got != want {
		t.Fatalf("rebuilt index has %d physical rows, want %d", got, want)
	}
	for i, q := range queries {
		agg.Reset()
		compact.Execute(q, agg)
		if agg.Result() != before[i] {
			t.Fatalf("query %d: compacted count %d != masked count %d", i, agg.Result(), before[i])
		}
	}
}
