package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flood/internal/query"
	"flood/internal/rmi"
	"flood/internal/wire"
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

// rewriteSteps returns the models section payload with each grid dimension's
// entry — tag 3 and its step points — replaced by what enc writes for it.
func rewriteSteps(t *testing.T, payload []byte, grids int, enc func(gi int, st []int64, w *wire.Writer)) []byte {
	t.Helper()
	r := wire.NewReaderBytes(payload)
	var out bytes.Buffer
	w := wire.NewWriter(&out)
	for gi := range grids {
		if tag := r.U8(); tag != stepsTag {
			t.Fatalf("grid dimension %d has bucketer tag %d, want %d", gi, tag, stepsTag)
		}
		st := r.I64s()
		enc(gi, st, w)
		payload = payload[1+8+8*len(st):]
	}
	if err := errors.Join(r.Err(), w.Flush()); err != nil {
		t.Fatal(err)
	}
	return append(out.Bytes(), payload...)
}

// TestLoadLegacyBucketers loads models sections written before the index
// kept step points — a flattening CDF (tag 1) or equal-width bounds (tag 2)
// per grid dimension — with no warning and no retrain: the loaded index holds
// the step points a fresh build derives, answers like it, and saves to its
// bytes.
func TestLoadLegacyBucketers(t *testing.T) {
	tbl, data := makeData(t, 5000, 4, 134)
	for _, layout := range []Layout{
		{GridDims: []int{0, 1}, GridCols: []int{8, 5}, SortDim: 2, Flatten: true},
		{GridDims: []int{3, 1}, GridCols: []int{16, 3}, SortDim: -1, Flatten: false},
	} {
		f, err := Build(tbl, layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fresh := buf.Bytes()
		legacy := resealSection(t, fresh, SectionModels, func(payload []byte) []byte {
			return rewriteSteps(t, payload, len(layout.GridDims), func(gi int, _ []int64, w *wire.Writer) {
				col := data[layout.GridDims[gi]]
				if layout.Flatten {
					w.U8(legacyCDFTag)
					rmi.TrainCDF(col, defaultCDFLeaves(len(col))).Encode(w)
					return
				}
				minV, maxV := slices.Min(col), slices.Max(col)
				w.U8(legacyEqualWidthTag)
				w.I64(minV)
				w.F64(float64(maxV) - float64(minV) + 1)
			})
		})
		res, err := LoadSections(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if len(res.Warnings) != 0 || res.Retrained {
			t.Fatalf("%s: a legacy models section should load cleanly: retrained=%v warnings=%v", layout, res.Retrained, res.Warnings)
		}
		for gi, st := range res.Index.steps {
			if !slices.Equal(st, f.steps[gi]) {
				t.Fatalf("%s: grid dimension %d loads step points %v, a build derives %v", layout, gi, st, f.steps[gi])
			}
		}
		checkLoadedAnswers(t, layout.String(), res.Index, data)
		var re bytes.Buffer
		if err := res.Index.Save(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), fresh) {
			t.Errorf("%s: the legacy snapshot saves to different bytes than a fresh build", layout)
		}
	}
}

// TestLoadHostileStepPoints damages a models section's step points under a
// right checksum. A table that decreases or is longer than the dimension's
// columns less one would bucket values into the wrong cells or past the
// grid: the load must refuse it and retrain, with a warning.
func TestLoadHostileStepPoints(t *testing.T) {
	tbl, data := makeData(t, 5000, 4, 135)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{8, 5}, SortDim: 2, Flatten: true}
	f, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(st []int64) []int64
	}{
		{"decreasing", func(st []int64) []int64 { st[0], st[1] = st[1], st[0]-1; return st }},
		{"last point below the first", func(st []int64) []int64 { st[len(st)-1] = math.MinInt64; return st }},
		{"one point too many", func(st []int64) []int64 { return append(st, math.MaxInt64) }},
		{"a point per column", func(st []int64) []int64 { return append([]int64{math.MinInt64}, st...) }},
	} {
		snap := resealSection(t, buf.Bytes(), SectionModels, func(payload []byte) []byte {
			return rewriteSteps(t, payload, len(layout.GridDims), func(gi int, st []int64, w *wire.Writer) {
				if gi == 1 {
					st = tc.edit(st)
				}
				w.U8(stepsTag)
				w.I64s(st)
			})
		})
		res, err := LoadSections(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Retrained || len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "step points") {
			t.Fatalf("%s: hostile step points should retrain with a warning naming them: retrained=%v warnings=%v", tc.name, res.Retrained, res.Warnings)
		}
		checkLoadedAnswers(t, tc.name, res.Index, data)
	}
}

// checkLoadedAnswers runs random range counts against a loaded index and
// brute force.
func checkLoadedAnswers(t *testing.T, what string, g *Flood, data [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(136))
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng, data, 3)
		agg := query.NewCount()
		g.Execute(q, agg)
		if want := bruteCount(data, q); agg.Result() != want {
			t.Fatalf("%s, trial %d: loaded index counted %d, brute force %d", what, trial, agg.Result(), want)
		}
	}
}
