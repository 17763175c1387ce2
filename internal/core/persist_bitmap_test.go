package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"slices"
	"testing"

	"flood/internal/colstore"
	"flood/internal/plm"
	"flood/internal/query"
	"flood/internal/wire"
)

// bitmapTestIndex builds an index over a table whose "city" column (dim 2)
// is low-cardinality and therefore bitmap-indexed at Build.
func bitmapTestIndex(t *testing.T, n int) (*Flood, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	data := make([][]int64, 3)
	for c := range data {
		data[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		data[0][i] = rng.Int63n(1 << 30)
		data[1][i] = rng.Int63n(10000)
		data[2][i] = rng.Int63n(5)
	}
	tbl, err := colstore.NewTable([]string{"ts", "val", "city"}, data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{8}, SortDim: 1, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f, data
}

func checkBitmapQueries(t *testing.T, orig, loaded *Flood) {
	t.Helper()
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 30; trial++ {
		q := query.NewQuery(3).
			WithEquals(2, rng.Int63n(5)).
			WithRange(1, rng.Int63n(5000), 5000+rng.Int63n(5000))
		a1, a2 := query.NewCount(), query.NewCount()
		orig.Execute(q, a1)
		loaded.Execute(q, a2)
		if a1.Result() != a2.Result() {
			t.Fatalf("trial %d: loaded index answered %d, original %d", trial, a2.Result(), a1.Result())
		}
	}
}

func TestBuildCreatesBitmapIndexes(t *testing.T) {
	f, _ := bitmapTestIndex(t, 3000)
	if f.t.Bitmap(2) == nil {
		t.Fatal("low-cardinality column should get a bitmap index at Build")
	}
	if f.t.Bitmap(0) != nil {
		t.Fatal("wide column should not get a bitmap index")
	}
	// A negative threshold disables them.
	tbl, _ := makeData(t, 500, 3, 99)
	g, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true},
		Options{BitmapMaxCardinality: -1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if g.t.Bitmap(c) != nil {
			t.Fatal("BitmapMaxCardinality < 0 should disable bitmap indexes")
		}
	}
}

func TestSaveLoadBitmapSection(t *testing.T) {
	f, _ := bitmapTestIndex(t, 3000)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := LoadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 || res.Retrained {
		t.Fatalf("clean load should not warn: %+v", res.Warnings)
	}
	bi := res.Index.t.Bitmap(2)
	if bi == nil {
		t.Fatal("bitmap index should survive save/load")
	}
	if want := f.t.Bitmap(2); bi.Cardinality() != want.Cardinality() || bi.MinValue() != want.MinValue() {
		t.Fatalf("bitmap domain changed across save/load: card %d→%d min %d→%d",
			want.Cardinality(), bi.Cardinality(), want.MinValue(), bi.MinValue())
	}
	checkBitmapQueries(t, f, res.Index)
}

// TestLoadSnapshotWithoutBitmapSection emulates a snapshot written before the
// bidx section existed (same version, three sections): it must load cleanly
// and rebuild the bitmap indexes from the data section.
func TestLoadSnapshotWithoutBitmapSection(t *testing.T) {
	f, _ := bitmapTestIndex(t, 3000)
	var buf bytes.Buffer
	if err := wire.WriteHeader(&buf, PersistVersion, 3); err != nil {
		t.Fatal(err)
	}
	sw := wire.NewSectionWriter(&buf)
	sw.Section(SectionMeta, f.encodeMeta)
	sw.Section(SectionData, func(w *wire.Writer) { f.t.Encode(w) })
	sw.Section(SectionModels, func(w *wire.Writer) { _ = f.encodeModels(w) })
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	res, err := LoadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("pre-bidx snapshot should load, got %v", err)
	}
	if res.Retrained {
		t.Fatal("missing bidx alone should not retrain the models")
	}
	if res.Index.t.Bitmap(2) == nil {
		t.Fatal("load should rebuild bitmap indexes for a pre-bidx snapshot")
	}
	checkBitmapQueries(t, f, res.Index)
}

// TestLoadDamagedBitmapSectionRecovers flips a byte inside the bidx payload:
// the section is reconstructible, so the load must succeed with a warning and
// rebuilt indexes instead of failing.
func TestLoadDamagedBitmapSectionRecovers(t *testing.T) {
	f, _ := bitmapTestIndex(t, 3000)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	at := bytes.Index(raw, []byte(SectionBitmaps))
	if at < 0 {
		t.Fatal("snapshot has no bidx section")
	}
	raw[at+16] ^= 0xFF // inside the payload: CRC mismatch, framing intact
	res, err := LoadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("damaged bidx should recover, got %v", err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("damaged bidx should be reported in Warnings")
	}
	if res.Retrained {
		t.Fatal("bidx damage alone should not retrain the models")
	}
	if res.Index.t.Bitmap(2) == nil {
		t.Fatal("damaged bidx should be rebuilt from the data section")
	}
	checkBitmapQueries(t, f, res.Index)
}

// TestLoadBitmapSectionWithWrongContentRecovers moves one row to no value at
// all inside the bidx payload and reseals the section, so framing, checksum
// and every size are right and only the content is wrong: the load must treat
// it exactly like a checksum failure — a warning, bitmap indexes rebuilt from
// the data section, models kept, right answers.
func TestLoadBitmapSectionWithWrongContentRecovers(t *testing.T) {
	f, _ := bitmapTestIndex(t, 3000)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Payload: index count, column, then the index — min, cardinality, rows,
	// word count, words. Clear row 0 (and the rest of its byte) in all five
	// bitmaps.
	raw := resealSection(t, buf.Bytes(), SectionBitmaps, func(payload []byte) []byte {
		const firstWord = 6 * 8
		nWords := (3000 + 63) / 64
		for v := 0; v < 5; v++ {
			payload[firstWord+v*nWords*8] = 0
		}
		return payload
	})
	res, err := LoadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bidx with wrong content should recover, got %v", err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("bidx with wrong content should be reported in Warnings")
	}
	if res.Retrained {
		t.Fatal("bidx damage alone should not retrain the models")
	}
	checkBitmapQueries(t, f, res.Index)
}

// resealSection returns a copy of the snapshot raw whose tag section holds
// what edit makes of its payload (edit may change the copy it is given in
// place), framed and checksummed anew: tag, payload length, payload, CRC over
// all three. Only the content is wrong, or old.
func resealSection(t *testing.T, raw []byte, tag string, edit func(payload []byte) []byte) []byte {
	t.Helper()
	for at := wire.HeaderSize; at+12 <= len(raw); {
		size := int(binary.LittleEndian.Uint64(raw[at+4:]))
		end := at + 12 + size + 4
		if string(raw[at:at+4]) != tag {
			at = end
			continue
		}
		payload := edit(slices.Clone(raw[at+12 : at+12+size]))
		frame := binary.LittleEndian.AppendUint64([]byte(tag), uint64(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, wire.Checksum(frame))
		return slices.Concat(raw[:at], frame, raw[end:])
	}
	t.Fatalf("snapshot has no %q section", tag)
	return nil
}

// TestLoadSnapshotWithoutRefinementModels loads what a build that refined by
// plain binary search (meta refinement slot 1) or not at all (slot 2) saved:
// a models section whose refinement-model flag is false. The load must train
// every non-empty cell's model in place — no warning, no retrain — answer
// like brute force, and save back to the bytes a fresh build saves. A models
// section that leaves one non-empty cell without a model is damage instead.
func TestLoadSnapshotWithoutRefinementModels(t *testing.T) {
	f, data := bitmapTestIndex(t, 3000)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := buf.Bytes()
	withModels := func(models []*plm.Model) []byte {
		return resealSection(t, fresh, SectionModels, func([]byte) []byte {
			var modl bytes.Buffer
			w := wire.NewWriter(&modl)
			if err := (&Flood{buckets: f.buckets, cellStart: f.cellStart, models: models}).encodeModels(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return modl.Bytes()
		})
	}
	noModels := withModels(nil)
	if len(noModels) >= len(fresh) {
		t.Fatal("the resealed snapshot still carries refinement models")
	}
	for _, mode := range []uint64{1, 2} {
		// The meta section ends in three 8-byte slots: refinement mode,
		// error budget, CDF leaf count.
		old := resealSection(t, noModels, SectionMeta, func(payload []byte) []byte {
			binary.LittleEndian.PutUint64(payload[len(payload)-24:], mode)
			return payload
		})
		res, err := LoadSections(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if len(res.Warnings) != 0 || res.Retrained {
			t.Fatalf("mode %d: a snapshot without models should load cleanly: retrained=%v warnings=%v",
				mode, res.Retrained, res.Warnings)
		}
		g := res.Index
		if len(g.models) != g.numCells {
			t.Fatalf("mode %d: loaded index has %d models for %d cells", mode, len(g.models), g.numCells)
		}
		for c := range g.numCells {
			if start, end := g.CellBounds(c); start != end && g.models[c] == nil {
				t.Fatalf("mode %d: cell %d holds %d rows but has no model", mode, c, end-start)
			}
		}
		checkBitmapQueries(t, f, g)
		rng := rand.New(rand.NewSource(80))
		for trial := 0; trial < 60; trial++ {
			lo := rng.Int63n(10000)
			q := query.NewQuery(3).WithRange(1, lo, lo+rng.Int63n(3)*rng.Int63n(2000))
			if trial%2 == 0 {
				q = q.WithRange(0, 0, rng.Int63n(1<<30))
			}
			agg := query.NewCount()
			g.Execute(q, agg)
			if want := bruteCount(data, q); agg.Result() != want {
				t.Fatalf("mode %d, trial %d: loaded index counted %d, brute force %d", mode, trial, agg.Result(), want)
			}
		}
		var re bytes.Buffer
		if err := g.Save(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), fresh) {
			t.Errorf("mode %d: the loaded index saves to different bytes than a fresh build", mode)
		}
	}

	// Models present but one non-empty cell without its own is damage, not
	// an older build: the load retrains, and the cell is never refined
	// without a model.
	partial := slices.Clone(f.models)
	partial[slices.IndexFunc(partial, func(m *plm.Model) bool { return m != nil })] = nil
	res, err := LoadSections(bytes.NewReader(withModels(partial)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Retrained || len(res.Warnings) == 0 {
		t.Fatalf("a non-empty cell without a model should retrain with a warning: retrained=%v warnings=%v",
			res.Retrained, res.Warnings)
	}
	checkBitmapQueries(t, f, res.Index)
}

// TestLoadSnapshotWrittenBeforeRangeEncoding opens testdata/pr21_bitmap.snapshot,
// the bytes Save produced for bitmapTestIndex(3000) at the commit before the
// bitmap index became range-encoded in memory (3000 rows: the last block and
// the last bitmap word are both partial). It must load without a warning or a
// rebuild, answer like a freshly built index and like brute force, and —
// because the wire keeps one bitmap per value — save back to the same bytes.
// A fresh build is held to the answers and the scan counts only: the
// snapshot's order among rows with equal sort keys is whatever the comparison
// sort of its day left, where Build now keeps input order
// (TestBuildTieOrderIsInputOrder), so the two tables differ inside tie runs.
func TestLoadSnapshotWrittenBeforeRangeEncoding(t *testing.T) {
	old, err := os.ReadFile("testdata/pr21_bitmap.snapshot")
	if err != nil {
		t.Fatal(err)
	}
	res, err := LoadSections(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 || res.Retrained {
		t.Fatalf("older snapshot should load cleanly: retrained=%v warnings=%v", res.Retrained, res.Warnings)
	}
	fresh, data := bitmapTestIndex(t, 3000)
	checkBitmapQueries(t, fresh, res.Index)
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		lo := rng.Int63n(5)
		q := query.NewQuery(3).WithRange(2, lo, lo+rng.Int63n(5)).WithRange(1, rng.Int63n(5000), 5000+rng.Int63n(5000))
		for _, mk := range []func() query.Aggregator{
			func() query.Aggregator { return query.NewCount() },
			func() query.Aggregator { return query.NewSum(1) },
			func() query.Aggregator { return query.NewMax(0) },
		} {
			got, want := mk(), mk()
			st := res.Index.Execute(q, got)
			wantSt := fresh.Execute(q, want)
			if got.Result() != want.Result() || st.Scanned != wantSt.Scanned || st.Matched != wantSt.Matched {
				t.Fatalf("trial %d %T: loaded %d (scanned %d, matched %d), fresh %d (scanned %d, matched %d)",
					trial, got, got.Result(), st.Scanned, st.Matched, want.Result(), wantSt.Scanned, wantSt.Matched)
			}
			if _, ok := got.(*query.Count); ok && got.Result() != bruteCount(data, q) {
				t.Fatalf("trial %d: loaded index counted %d, brute force %d", trial, got.Result(), bruteCount(data, q))
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), old) {
		t.Error("loaded index saves to different bytes than the older snapshot")
	}
}
