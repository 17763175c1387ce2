package flood

import (
	"bytes"
	"slices"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// TestSelectParallelMatchesSequential pins the row-collecting scan through
// the morsel engine: every fixture query, run with four workers (which forces
// the morsel engine whatever the scan volume), must collect the same ids and
// scan the same rows as the sequential kernel (ids are sorted, as Select sorts
// them, so merge order cannot leak). Runs in the CI race matrix.
func TestSelectParallelMatchesSequential(t *testing.T) {
	fx := newTypedFixture(t, 120_000, 31)
	idx, err := BuildWithLayout(fx.tbl, fixtureLayout(fx), &Options{Schema: fx.schema})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fixtureQueries(fx) {
		var seq, par query.RowCollector
		seqSt := idx.run(nil, tc.q, &seq, 1)
		parSt := idx.run(nil, tc.q, &par, 4)
		seq.Sort()
		par.Sort()
		if !slices.Equal(seq.IDs(), par.IDs()) {
			t.Fatalf("%s: parallel scan ids diverge from sequential (%d vs %d rows)",
				tc.name, par.Len(), seq.Len())
		}
		if seqSt.Scanned != parSt.Scanned || seqSt.Matched != parSt.Matched {
			t.Fatalf("%s: parallel counters %d/%d, sequential %d/%d (scanned/matched)",
				tc.name, parSt.Scanned, parSt.Matched, seqSt.Scanned, seqSt.Matched)
		}
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
	loaded, _, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema() == nil {
		t.Fatal("schema not auto-restored from the snapshot")
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
// insert log: a large insert burst is charged on top of the base metadata at
// what the log holds — its whole blocks compressed, the partial block past
// them raw — and a merge returns the accounting to the merged base's
// metadata.
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
	whole := burst - burst%colstore.BlockSize
	sealed := make([][]int64, len(row))
	for c := range sealed {
		sealed[c] = slices.Repeat([]int64{row[c]}, whole)
	}
	logBytes := colstore.MustNewTable(fx.tbl.Names(), sealed).SizeBytes() + int64((burst-whole)*len(row)*8)
	if got, want := d.SizeBytes(), base+logBytes; got != want {
		t.Fatalf("SizeBytes = %d, want base %d + %d pending rows' %d log bytes = %d", got, base, burst, logBytes, want)
	}
	mergeNow(t, d)
	if got := d.SizeBytes(); got != d.Index().SizeBytes() {
		t.Fatalf("post-merge SizeBytes = %d, want the merged base's metadata %d", got, d.Index().SizeBytes())
	}
}
