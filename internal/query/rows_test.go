package query

import (
	"slices"
	"testing"

	"flood/internal/colstore"
)

func seqTable(t *testing.T, n int, base int64) *colstore.Table {
	t.Helper()
	col := make([]int64, n)
	for i := range col {
		col[i] = base + int64(i)
	}
	return colstore.MustNewTable([]string{"v"}, [][]int64{col})
}

func TestRowCollectorSingleSource(t *testing.T) {
	tbl := seqTable(t, 300, 0)
	rc := NewRowCollector()
	q := NewQuery(1).WithRange(0, 50, 259)
	sc := newScanner(tbl)
	_, m := sc.ScanRange(q, q.FilteredDims(), 0, tbl.NumRows(), rc)
	if m != 210 || rc.Len() != 210 {
		t.Fatalf("matched %d, collected %d, want 210", m, rc.Len())
	}
	rc.Sort()
	for i, id := range rc.IDs() {
		if id != int64(50+i) {
			t.Fatalf("id[%d] = %d, want %d", i, id, 50+i)
		}
	}
	tt, row, ok := rc.Resolve(rc.IDs()[0])
	if !ok || tt != tbl || row != 50 {
		t.Fatalf("Resolve = (%p, %d, %v), want (%p, 50, true)", tt, row, ok, tbl)
	}
}

func TestRowCollectorMultiSourceOffsets(t *testing.T) {
	base := seqTable(t, 200, 0)
	delta := seqTable(t, 50, 1000)
	rc := NewRowCollector()
	rc.PinSource(base)
	q := NewQuery(1).WithRange(0, 150, 1020)

	for _, tbl := range []*colstore.Table{base, delta} {
		sc := newScanner(tbl)
		sc.ScanRange(q, q.FilteredDims(), 0, tbl.NumRows(), rc)
	}
	rc.Sort()
	// Rows 150..199 of base (ids 150..199) then delta rows 0..20 (ids 200..220).
	if rc.Len() != 50+21 {
		t.Fatalf("collected %d rows, want 71", rc.Len())
	}
	ids := rc.IDs()
	if ids[0] != 150 || ids[49] != 199 || ids[50] != 200 || ids[70] != 220 {
		t.Fatalf("unexpected id tiling: %v", ids)
	}
	if tt, row, ok := rc.Resolve(205); !ok || tt != delta || row != 5 {
		t.Fatalf("Resolve(205) = (%p, %d, %v), want delta row 5", tt, row, ok)
	}
}

func TestRowCollectorMergeIdenticalSources(t *testing.T) {
	tbl := seqTable(t, 256, 0)
	q := NewQuery(1).WithRange(0, 0, 255)
	parent := NewRowCollector()
	for _, half := range [][2]int{{0, 128}, {128, 256}} {
		clone := parent.CloneEmpty().(*RowCollector)
		sc := newScanner(tbl)
		sc.ScanRange(q, q.FilteredDims(), half[0], half[1], clone)
		parent.Merge(clone)
	}
	parent.Sort()
	if parent.Len() != 256 {
		t.Fatalf("merged %d ids, want 256", parent.Len())
	}
	for i, id := range parent.IDs() {
		if id != int64(i) {
			t.Fatalf("id[%d] = %d", i, id)
		}
	}
}

func TestRowCollectorMergeRebasesForeignSources(t *testing.T) {
	base := seqTable(t, 100, 0)
	delta := seqTable(t, 10, 0)
	// Parent saw base first; the other collector only ever saw delta, so its
	// delta ids start at 0 and must re-base past the parent's base range.
	parent := NewRowCollector()
	parent.PinSource(base)
	other := NewRowCollector()
	addRow(other, delta, 3)
	other.AddExactRange(delta, 7, 9)
	parent.Merge(other)
	parent.Sort()
	want := []int64{103, 107, 108}
	if !slices.Equal(parent.IDs(), want) {
		t.Fatalf("merged ids = %v, want %v", parent.IDs(), want)
	}
	if tt, row, ok := parent.Resolve(107); !ok || tt != delta || row != 7 {
		t.Fatalf("Resolve(107) = (%p, %d, %v), want delta row 7", tt, row, ok)
	}
}

func TestRowCollectorResetReusesCapacity(t *testing.T) {
	tbl := seqTable(t, 64, 0)
	rc := NewRowCollector()
	rc.AddExactRange(tbl, 0, 64)
	rc.Reset()
	if rc.Len() != 0 || len(rc.Sources()) != 0 {
		t.Fatalf("Reset left state behind: %d ids, %d sources", rc.Len(), len(rc.Sources()))
	}
	allocs := testing.AllocsPerRun(100, func() {
		rc.Reset()
		rc.AddExactRange(tbl, 0, 64)
		rc.Sort()
	})
	if allocs != 0 {
		t.Fatalf("steady-state collect allocated %.1f times per run", allocs)
	}
}

// TestRowCollectorPinSourceAt places tables the way the insert log does: a
// silent sealed table still owns its id range, and two encodings of the
// same trailing rows share one.
func TestRowCollectorPinSourceAt(t *testing.T) {
	base := seqTable(t, 100, 0)
	seg := seqTable(t, 64, 1000)     // log rows [0, 64): matches nothing below
	suffixA := seqTable(t, 10, 2000) // log rows [64, 74)
	suffixB := seqTable(t, 12, 2000) // the same rows re-encoded after two appends
	rc := NewRowCollector()
	logStart := rc.PinSource(base) + int64(base.NumRows())
	rc.PinSourceAt(seg, logStart)
	rc.PinSourceAt(suffixA, logStart+64)
	addRow(rc, suffixA, 3)
	rc.PinSourceAt(suffixB, logStart+64)
	addRow(rc, suffixB, 11)
	if want := []int64{100 + 64 + 3, 100 + 64 + 11}; !slices.Equal(rc.IDs(), want) {
		t.Fatalf("ids %v, want %v", rc.IDs(), want)
	}
	if tt, row, ok := rc.Resolve(100 + 64 + 3); !ok || tt.Get(0, row) != 2003 {
		t.Fatalf("Resolve(suffix row 3) = row %d of %p, ok %v", row, tt, ok)
	}
	if tt, row, ok := rc.Resolve(100 + 64 + 11); !ok || tt != suffixB || row != 11 {
		t.Fatalf("Resolve(suffix row 11) = row %d of %p, ok %v", row, tt, ok)
	}
	// The next table to arrive unplaced lands past everything placed.
	addRow(rc, seqTable(t, 5, 0), 0)
	if got := rc.IDs()[2]; got != 100+64+12 {
		t.Fatalf("unplaced table started at id %d, want %d", got, 100+64+12)
	}
}
