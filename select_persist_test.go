package flood

import (
	"bytes"
	"slices"
	"testing"
)

// TestSelectParallelMatchesSequential pins Select through the morsel engine:
// a result set far past the parallel cutover must equal the pinned
// sequential path row for row (ids are sorted, so merge order cannot leak).
// Runs in the CI race matrix.
func TestSelectParallelMatchesSequential(t *testing.T) {
	fx := newTypedFixture(t, 120_000, 31)
	seqIdx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	parIdx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema, ParallelCutoverRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureQueries(fx) {
		seqRows, _ := seqIdx.Select(tc.q)
		parRows, _ := parIdx.Select(tc.q)
		if !slices.Equal(seqRows.rc.IDs(), parRows.rc.IDs()) {
			t.Fatalf("%s: parallel Select ids diverge from sequential (%d vs %d rows)",
				tc.name, parRows.Len(), seqRows.Len())
		}
		seqRows.Close()
		parRows.Close()
	}
}

// TestDeltaMergeSaveLoadRoundTrip covers the persist path after an
// insert-log merge: the merged base saves, loads, and answers Select
// identically.
func TestDeltaMergeSaveLoadRoundTrip(t *testing.T) {
	fx := newTypedFixture(t, 3000, 32)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	d := unmerged(t, idx)
	extra := newTypedFixture(t, 500, 33)
	for i := range extra.ts {
		// Reuse city values from the fitted dictionary: the merged rows
		// must decode through the original schema.
		row, err := fx.schema.EncodeRow(extra.ts[i], extra.fare[i], fx.city[i%len(fx.city)], extra.pickup[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	mergeNow(t, d)

	var buf bytes.Buffer
	if err := d.Index().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema() == nil {
		t.Fatal("schema not auto-restored from the snapshot (no SetSchema needed)")
	}
	if loaded.Table().NumRows() != 3500 {
		t.Fatalf("loaded table has %d rows, want 3500", loaded.Table().NumRows())
	}
	for _, tc := range fixtureQueries(fx) {
		before, _ := d.Select(tc.q)
		after, _ := loaded.Select(tc.q)
		got := collectRows(t, after)
		want := collectRows(t, before)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: loaded index returned %d rows, merged index %d", tc.name, len(got), len(want))
		}
		before.Close()
		after.Close()
	}
}

// TestDeltaSizeBytesCountsPendingRows pins the memory reporting of the
// insert log: a large insert burst is charged on top of the base metadata,
// and a merge returns the accounting to the merged base's metadata.
func TestDeltaSizeBytesCountsPendingRows(t *testing.T) {
	fx := newTypedFixture(t, 1000, 34)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	d := unmerged(t, idx)
	base := d.SizeBytes()
	const burst = 10_000
	row, err := fx.schema.EncodeRow(int64(1), 2.50, fx.city[0], fx.pickup[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if err := d.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.SizeBytes(), base+int64(burst*len(row)*8); got != want {
		t.Fatalf("SizeBytes = %d, want base %d + %d pending rows = %d", got, base, burst, want)
	}
	mergeNow(t, d)
	if got := d.SizeBytes(); got != d.Index().SizeBytes() {
		t.Fatalf("post-merge SizeBytes = %d, want the merged base's metadata %d", got, d.Index().SizeBytes())
	}
}
