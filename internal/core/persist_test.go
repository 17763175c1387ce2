package core

import (
	"bytes"
	"math/rand"
	"testing"

	"flood/internal/query"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	tbl, data := makeData(t, 5000, 4, 131)
	tbl.EnableAggregate(3)
	for _, layout := range []Layout{
		{GridDims: []int{0, 1}, GridCols: []int{8, 4}, SortDim: 2, Flatten: true},
		{GridDims: []int{2}, GridCols: []int{16}, SortDim: -1, Flatten: false},
		{GridDims: []int{0, 1, 2, 3}, GridCols: []int{3, 3, 3, 3}, SortDim: -1, Flatten: true},
	} {
		orig, err := Build(tbl, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Layout().String() != orig.Layout().String() {
			t.Fatalf("layout changed: %s -> %s", orig.Layout(), loaded.Layout())
		}
		if loaded.NumCells() != orig.NumCells() || loaded.NonEmptyCells() != orig.NonEmptyCells() {
			t.Fatal("cell structure changed across save/load")
		}
		rng := rand.New(rand.NewSource(132))
		for trial := 0; trial < 25; trial++ {
			q := randomQuery(rng, data, 4)
			a1, a2 := query.NewCount(), query.NewCount()
			orig.Execute(q, a1)
			loaded.Execute(q, a2)
			if a1.Result() != a2.Result() {
				t.Fatalf("layout %s: loaded index answered %d, original %d", layout, a2.Result(), a1.Result())
			}
		}
		// SUM over the aggregate-enabled column must survive too.
		q := query.NewQuery(4).WithRange(0, 0, 500)
		s1, s2 := query.NewSum(3), query.NewSum(3)
		orig.Execute(q, s1)
		loaded.Execute(q, s2)
		if s1.Result() != s2.Result() {
			t.Fatalf("sum changed across save/load: %d vs %d", s1.Result(), s2.Result())
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage should not load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should not load")
	}
	// A truncated valid stream must fail cleanly, not panic.
	tbl, _ := makeData(t, 500, 3, 133)
	idx, _ := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true}, Options{})
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{8, 64, buf.Len() / 2} {
		if _, err := Load(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes should fail", cut)
		}
	}
	// Truncation confined to the final (models) section degrades instead:
	// the models are retrained from the intact data sections.
	res, err := LoadSections(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if err != nil {
		t.Fatalf("models-only truncation should recover by retraining, got %v", err)
	}
	if !res.Retrained || len(res.Warnings) == 0 {
		t.Fatalf("models-only truncation should report retraining, got %+v", res)
	}
	if res.Index.NumCells() != idx.NumCells() {
		t.Fatal("retrained index has different cell structure")
	}
}
