package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
	"flood/internal/rmi"
	"flood/internal/wire"
)

// load reads an index written by Save, recovering a damaged models section
// by retraining, as LoadSections does.
func load(in io.Reader) (*Flood, error) {
	res, err := LoadSections(in)
	if err != nil {
		return nil, err
	}
	return res.Index, nil
}

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
		loaded, err := load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Layout().String() != orig.Layout().String() {
			t.Fatalf("layout changed: %s -> %s", orig.Layout(), loaded.Layout())
		}
		if loaded.NumCells() != orig.NumCells() || !slices.Equal(loaded.cellStart, orig.cellStart) {
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
	if _, err := load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage should not load")
	}
	if _, err := load(bytes.NewReader(nil)); err == nil {
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
		if _, err := load(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
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
	out := encodeBytes(t, func(w *wire.Writer) {
		for gi := range grids {
			if tag := r.U8(); tag != stepsTag {
				t.Fatalf("grid dimension %d has bucketer tag %d, want %d", gi, tag, stepsTag)
			}
			st := r.I64s()
			enc(gi, st, w)
			payload = payload[1+8+8*len(st):]
		}
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return append(out, payload...)
}

// encodeBytes returns what encode writes through a wire.Writer: the payload
// of the one section a SectionWriter frames around it, read back.
func encodeBytes(t testing.TB, encode func(*wire.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := wire.NewSectionWriter(&buf)
	sw.Section("test", encode)
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	_, payload, err := wire.NewSectionReader(&buf, 1).Next()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestLoadLegacyBucketers loads models sections written before the index
// kept step points — a flattening CDF (tag 1) or equal-width bounds (tag 2)
// per grid dimension — with no warning and no retrain. Each snapshot is an
// index whose rows that model placed (referenceBuild over the step points
// the model stands for): the loaded index holds those step points, answers
// like brute force, and saves to the bytes of the same index written with
// them, the snapshot's own re-save.
func TestLoadLegacyBucketers(t *testing.T) {
	tbl, data := makeData(t, 5000, 4, 134)
	for _, layout := range []Layout{
		{GridDims: []int{0, 1}, GridCols: []int{8, 5}, SortDim: 2, Flatten: true},
		{GridDims: []int{3, 1}, GridCols: []int{16, 3}, SortDim: -1, Flatten: false},
	} {
		st := make([]steps, len(layout.GridDims))
		enc := make([]func(w *wire.Writer), len(layout.GridDims))
		for gi, dim := range layout.GridDims {
			col, cols := data[dim], layout.GridCols[gi]
			if layout.Flatten {
				cdf := rmi.TrainCDF(col, defaultCDFLeaves(len(col)))
				st[gi] = cdfSteps(cdf, cols)
				enc[gi] = func(w *wire.Writer) { w.U8(legacyCDFTag); cdf.Encode(w) }
				continue
			}
			minV, maxV := slices.Min(col), slices.Max(col)
			rangeSz := float64(maxV) - float64(minV) + 1
			st[gi] = stepPoints(func(v int64) int { return equalWidthBucket(v, minV, rangeSz, cols) }, cols)
			enc[gi] = func(w *wire.Writer) { w.U8(legacyEqualWidthTag); w.I64(minV); w.F64(rangeSz) }
		}
		resaved := saved(t, referenceBuild(t, tbl, layout, Options{}, st))
		legacy := resealSection(t, resaved, sectionModels, func(payload []byte) []byte {
			return rewriteSteps(t, payload, len(layout.GridDims), func(gi int, _ []int64, w *wire.Writer) { enc[gi](w) })
		})
		res, err := LoadSections(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if len(res.Warnings) != 0 || res.Retrained {
			t.Fatalf("%s: a legacy models section should load cleanly: retrained=%v warnings=%v", layout, res.Retrained, res.Warnings)
		}
		for gi, got := range res.Index.steps {
			if !slices.Equal(got, st[gi]) {
				t.Fatalf("%s: grid dimension %d loads step points %v, its model stands for %v", layout, gi, got, st[gi])
			}
		}
		checkLoadedAnswers(t, layout.String(), res.Index, data)
		if !bytes.Equal(saved(t, res.Index), resaved) {
			t.Errorf("%s: the legacy snapshot saves to different bytes than the index it describes", layout)
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
		snap := resealSection(t, buf.Bytes(), sectionModels, func(payload []byte) []byte {
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

// TestLoadHostileBlockMinimum raises a data block's stored minimum under a
// right checksum so that a packed delta wraps past the top of int64, and
// damages the step points too, so a load that accepted the table would
// rebuild the index from it, reading the dimension's domain off the lying
// zone maps. The load must refuse the table with an error, not panic.
func TestLoadHostileBlockMinimum(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(137))
	data := [][]int64{make([]int64, n), make([]int64, n)}
	for i := range n {
		data[0][i] = math.MaxInt64 - rng.Int63n(2)
		data[1][i] = rng.Int63n(1000)
	}
	tbl, err := colstore.NewTable([]string{"a", "b"}, data)
	if err != nil {
		t.Fatal(err)
	}
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{2, 4}, SortDim: -1, Flatten: true}
	f, err := Build(tbl, layout, Options{bitmapMaxCardinality: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	low, high := binary.LittleEndian.AppendUint64(nil, math.MaxInt64-1), binary.LittleEndian.AppendUint64(nil, math.MaxInt64)
	snap := resealSection(t, buf.Bytes(), sectionData, func(payload []byte) []byte {
		if !bytes.Contains(payload, low) {
			t.Fatal("the data section holds no block minimum of MaxInt64-1")
		}
		return bytes.ReplaceAll(payload, low, high)
	})
	snap = resealSection(t, snap, sectionModels, func(payload []byte) []byte {
		return rewriteSteps(t, payload, len(layout.GridDims), func(gi int, st []int64, w *wire.Writer) {
			if gi == 1 {
				st = append(st, math.MaxInt64)
			}
			w.U8(stepsTag)
			w.I64s(st)
		})
	})
	if _, err := LoadSections(bytes.NewReader(snap)); err == nil || !strings.Contains(err.Error(), "smallest value") {
		t.Fatalf("a block that decodes below its minimum loaded with error %v", err)
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
