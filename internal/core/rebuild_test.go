package core

import (
	"bytes"
	"math/rand"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// TestRebuildMatchesScratchBuild pins the merge step: rebuilding with extra
// rows must answer queries exactly like an index built from scratch over the
// concatenated data, and must preserve aggregate-enabled columns.
func TestRebuildMatchesScratchBuild(t *testing.T) {
	tbl, data := makeData(t, 5000, 3, 11)
	tbl.EnableAggregate(2)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{6, 6}, SortDim: 2, Flatten: true}
	base, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(12))
	const added = 700
	extra := make([][]int64, 3)
	all := make([][]int64, 3)
	for c := range extra {
		extra[c] = make([]int64, added)
		for i := range extra[c] {
			extra[c][i] = rng.Int63n(1 << 16)
		}
		all[c] = append(append([]int64(nil), data[c]...), extra[c]...)
	}

	rebuilt, err := base.RebuildCompact(extra, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Table().NumRows() != 5700 {
		t.Fatalf("rebuilt has %d rows, want 5700", rebuilt.Table().NumRows())
	}
	if !rebuilt.Table().HasAggregate(2) {
		t.Fatal("rebuild dropped the aggregate column")
	}
	if rebuilt.Layout().String() != base.Layout().String() {
		t.Fatal("rebuild must keep the layout")
	}
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, all, 3)
		agg := query.NewCount()
		rebuilt.Execute(q, agg)
		if want := bruteCount(all, q); agg.Result() != want {
			t.Fatalf("query %d: count %d, want %d", i, agg.Result(), want)
		}
		sum := query.NewSum(2)
		rebuilt.Execute(q, sum)
		if want := bruteSum(all, q, 2); sum.Result() != want {
			t.Fatalf("query %d: sum %d, want %d", i, sum.Result(), want)
		}
	}

	// Degenerate inputs: no extra rows returns the same data; mismatched
	// shapes fail loudly.
	if same, err := MergeRowsLive(base.Table(), nil, nil, nil); err != nil || same != base.Table() {
		t.Fatalf("empty merge should return the input table (err %v)", err)
	}
	if _, err := MergeRowsLive(base.Table(), nil, [][]int64{{1}}, nil); err == nil {
		t.Fatal("column-count mismatch should fail")
	}
	if _, err := MergeRowsLive(base.Table(), nil, [][]int64{{1}, {1, 2}, {1}}, nil); err == nil {
		t.Fatal("ragged extra rows should fail")
	}
}

// TestRebuildFromRawColumnsIsTheSameIndex: RebuildCompact builds straight
// from the raw columns its merge assembles. The index must be the one Build
// makes from MergeRowsLive's table — the same rows compressed and decoded
// again — byte for byte, with tombstones on either side, both, or neither,
// and with nothing to merge at all.
func TestRebuildFromRawColumnsIsTheSameIndex(t *testing.T) {
	tbl, _ := makeData(t, 6000, 4, 17)
	tbl.EnableAggregate(3)
	layout := Layout{GridDims: []int{0, 2}, GridCols: []int{7, 5}, SortDim: 1, Flatten: true}
	base, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	extra := make([][]int64, 4)
	for c := range extra {
		extra[c] = make([]int64, 900)
		for i := range extra[c] {
			extra[c][i] = rng.Int63n(1500) - 200
		}
	}
	dead := func(n, k int) *colstore.Tombstones {
		rows := make([]int, k)
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		ts, _ := colstore.AddTombstones(nil, n, rows)
		return ts
	}
	for _, tc := range []struct {
		name            string
		extra           [][]int64
		tomb, extraTomb *colstore.Tombstones
	}{
		{"nothing to merge", nil, nil, nil},
		{"rows added", extra, nil, nil},
		{"base rows dead", nil, dead(6000, 400), nil},
		{"added rows dead", extra, nil, dead(900, 100)},
		{"both", extra, dead(6000, 400), dead(900, 100)},
	} {
		merged, err := MergeRowsLive(base.Table(), tc.tomb, tc.extra, tc.extraTomb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(merged, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := base.RebuildCompact(tc.extra, tc.tomb, tc.extraTomb)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := want.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the rebuild differs from a build over the merged table", tc.name)
		}
		if !got.Table().HasAggregate(3) {
			t.Errorf("%s: the rebuild dropped the aggregate column", tc.name)
		}
	}
}
