package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
	"flood/internal/rmi"
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
	if want := f.t.Bitmap(2); bi.SizeBytes() != want.SizeBytes() {
		t.Fatalf("bitmap index changed across save/load: %d → %d bytes", want.SizeBytes(), bi.SizeBytes())
	}
	checkBitmapQueries(t, f, res.Index)
}

// TestBitmapSnapshotResavesBytes builds an index whose bitmap-indexed
// columns are a grid dimension — each stripe holding only its cell's slice
// of the domain — and an i.i.d. column, over a row count that ends in a
// partial stripe and a partial word: Save → Load → Save must give the same
// bytes, and the loaded indexes must answer every range around the domain
// in every block as the built ones do.
func TestBitmapSnapshotResavesBytes(t *testing.T) {
	const n = 20_000
	rng := rand.New(rand.NewSource(79))
	data := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := range n {
		data[0][i] = rng.Int63n(40)
		data[1][i] = rng.Int63n(1 << 20)
		data[2][i] = rng.Int63n(9) - 4
	}
	tbl, err := colstore.NewTable([]string{"city", "val", "kind"}, data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{8}, SortDim: 1, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := f.Save(&first); err != nil {
		t.Fatal(err)
	}
	res, err := LoadSections(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 || res.Retrained {
		t.Fatalf("clean load should not warn: %+v", res.Warnings)
	}
	if err := res.Index.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save → Load → Save changed the snapshot's bytes")
	}
	for _, c := range []int{0, 2} {
		built, loaded := f.t.Bitmap(c), res.Index.t.Bitmap(c)
		if built == nil || loaded == nil {
			t.Fatalf("column %d: bitmap index missing after build or load", c)
		}
		if built.SizeBytes() >= int64(n) && c == 0 {
			t.Errorf("column 0: %d B of bitmaps over %d rows: the stripes did not narrow to their cells", built.SizeBytes(), n)
		}
		lo, hi := slices.Min(data[c])-1, slices.Max(data[c])+1
		for a := lo; a <= hi; a++ {
			for b := a - 1; b <= hi; b++ {
				rb, rl := built.Range(a, b), loaded.Range(a, b)
				for blk := range f.t.Column(c).NumBlocks() {
					want := colstore.BlockBitmap{^uint64(0), ^uint64(0)}
					got := want
					rb.AndBlock(&want, blk)
					rl.AndBlock(&got, blk)
					if got != want {
						t.Fatalf("column %d block %d [%d,%d]: loaded index selects %#x, built %#x", c, blk, a, b, got, want)
					}
				}
			}
		}
	}
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
	sw.Section(SectionModels, f.encodeModels)
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

// legacyRefinementModels returns what a build that trained a
// piecewise-linear model per cell stored after the models section's
// refinement-model flag: per cell a presence flag, then for a non-empty cell
// the tag PLM1, its row count, a segment count and a key, base and slope per
// segment. The segments' contents are arbitrary: a loader only reads past
// them.
func legacyRefinementModels(f *Flood) []byte {
	var out []byte
	for c := range f.numCells {
		start, end := f.CellBounds(c)
		if start == end {
			out = append(out, 0)
			continue
		}
		segs := 1 + c%3
		out = append(append(out, 1), "PLM1"...)
		out = binary.LittleEndian.AppendUint64(out, uint64(end-start))
		out = binary.LittleEndian.AppendUint64(out, uint64(segs))
		for s := range segs {
			out = binary.LittleEndian.AppendUint64(out, uint64(f.t.Raw(f.layout.SortDim)[start]+int64(s)))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(s*40)))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(0.25))
		}
	}
	return out
}

// TestLoadSnapshotWithRefinementModels loads what older builds saved, over
// an index with no empty cell and over one whose cells are mostly empty: a
// models section whose refinement-model flag is set and followed by per-cell
// models, and the model-less sections of builds whose meta section named
// plain binary search or no refinement. Each must load — models read and
// dropped, no warning, no retrain — answer like brute force, and save back
// to the bytes this build saves. A section that ends inside the models is
// damage instead: the load retrains, with a warning.
func TestLoadSnapshotWithRefinementModels(t *testing.T) {
	bitmapIdx, bitmapData := bitmapTestIndex(t, 3000)
	ties := tiesData(6000)
	tiesTbl, err := colstore.NewTable([]string{"a", "b", "c", "d", "e"}, ties)
	if err != nil {
		t.Fatal(err)
	}
	tiesIdx, err := Build(tiesTbl, Layout{GridDims: []int{0, 4, 1}, GridCols: []int{40, 40, 3}, SortDim: 2, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    *Flood
		data [][]int64
	}{{"bitmap", bitmapIdx, bitmapData}, {"ties", tiesIdx, ties}} {
		var buf bytes.Buffer
		if err := tc.f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fresh := buf.Bytes()
		models := legacyRefinementModels(tc.f)
		withModels := func(models []byte) []byte {
			return resealSection(t, fresh, SectionModels, func(payload []byte) []byte {
				if payload[len(payload)-1] != 0 {
					t.Fatalf("%s: Save set the refinement-model flag", tc.name)
				}
				payload[len(payload)-1] = 1
				return append(payload, models...)
			})
		}
		snapshots := map[string][]byte{"with models": withModels(models)}
		for _, mode := range []uint64{1, 2} {
			// What builds that refined by plain binary search (1) or not at
			// all (2) saved: no models, and the mode in the first of the
			// meta section's three trailing 8-byte slots.
			snapshots[fmt.Sprintf("refinement mode %d", mode)] = resealSection(t, fresh, SectionMeta, func(payload []byte) []byte {
				binary.LittleEndian.PutUint64(payload[len(payload)-24:], mode)
				return payload
			})
		}
		for what, snap := range snapshots {
			res, err := LoadSections(bytes.NewReader(snap))
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, what, err)
			}
			if len(res.Warnings) != 0 || res.Retrained {
				t.Fatalf("%s, %s: the snapshot should load cleanly: retrained=%v warnings=%v",
					tc.name, what, res.Retrained, res.Warnings)
			}
			g := res.Index
			rng := rand.New(rand.NewSource(80))
			for trial := 0; trial < 60; trial++ {
				q := randomQuery(rng, tc.data, 2)
				sd := tc.f.layout.SortDim
				lo := tc.data[sd][rng.Intn(len(tc.data[sd]))]
				q = q.WithRange(sd, lo, lo+rng.Int63n(3)*rng.Int63n(2000))
				agg := query.NewCount()
				g.Execute(q, agg)
				if want := bruteCount(tc.data, q); agg.Result() != want {
					t.Fatalf("%s, %s, trial %d: loaded index counted %d, brute force %d", tc.name, what, trial, agg.Result(), want)
				}
			}
			var re bytes.Buffer
			if err := g.Save(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), fresh) {
				t.Errorf("%s, %s: the loaded index saves to different bytes than this build", tc.name, what)
			}
		}

		res, err := LoadSections(bytes.NewReader(withModels(models[:len(models)-5])))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Retrained || len(res.Warnings) == 0 {
			t.Fatalf("%s: models cut short should retrain with a warning: retrained=%v warnings=%v",
				tc.name, res.Retrained, res.Warnings)
		}
	}
}

// TestLoadSnapshotWrittenBeforeRangeEncoding opens testdata/pr21_bitmap.snapshot,
// the bytes Save produced for bitmapTestIndex(3000) at the commit before the
// bitmap index became range-encoded in memory (3000 rows: the last block and
// the last bitmap word are both partial). It must load without a warning or a
// rebuild, answer like a freshly built index and like brute force, and —
// because the wire keeps one bitmap per value — save back to the same bytes
// in every section but the models section. That one it saves as it was with
// each grid dimension's flattening CDF replaced by the CDF's step points, the
// refinement-model flag cleared and the per-cell models after it gone: the
// index keeps step points, refinement searches the zone map, and the per-cell
// models are read and dropped.
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
	want := resealSection(t, old, SectionModels, func(payload []byte) []byte {
		// Cell 0 holds rows, so the first model's tag follows the
		// refinement-model flag and cell 0's presence flag.
		at := bytes.Index(payload, []byte("PLM1")) - 2
		if at < 0 || payload[at] != 1 || payload[at+1] != 1 {
			t.Fatal("the older snapshot carries no refinement models after a set flag")
		}
		return append(legacyCDFsAsSteps(t, payload[:at], res.Index.layout), 0)
	})
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("loaded index saves to different bytes than the older snapshot with its CDFs as step points and its models dropped")
	}
}

// legacyCDFsAsSteps rewrites the start of an older models section — one
// flattening CDF (tag 1) per grid dimension, then the cell table — as this
// build writes it: tag 3 and the CDF's step points in each CDF's place.
func legacyCDFsAsSteps(t *testing.T, payload []byte, layout Layout) []byte {
	t.Helper()
	var out bytes.Buffer
	w := wire.NewWriter(&out)
	for _, cols := range layout.GridCols {
		if payload[0] != legacyCDFTag {
			t.Fatalf("the older snapshot's bucketer tag is %d, want a CDF", payload[0])
		}
		cdf, err := rmi.DecodeCDF(wire.NewReaderBytes(payload[1:]))
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		ew := wire.NewWriter(&enc)
		cdf.Encode(ew)
		if err := ew.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(payload[1:], enc.Bytes()) {
			t.Fatal("the older snapshot's CDF does not re-encode to its own bytes")
		}
		payload = payload[1+enc.Len():]
		w.U8(stepsTag)
		w.I64s(cdfSteps(cdf, cols))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(out.Bytes(), payload...)
}
