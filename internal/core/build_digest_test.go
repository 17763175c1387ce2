package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flood/internal/colstore"
	"flood/internal/dataset"
)

// digestCase is one table and layout whose build is pinned by a committed
// digest. The table's last column is the original row number: no layout
// names it, so it rides along through the reorder and says where each
// physical row came from.
type digestCase struct {
	name   string
	data   [][]int64 // without the row-number column
	layout Layout
}

// withRowIDs returns data as a table with the row-number column appended.
func withRowIDs(t testing.TB, data [][]int64) *colstore.Table {
	t.Helper()
	n := len(data[0])
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	names := make([]string, len(data)+1)
	for c := range names {
		names[c] = "c" + string(rune('0'+c))
	}
	tbl, err := colstore.NewTable(names, append(slices.Clone(data), ids))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// tiesData is the awkward table: negative values, a constant column, a sort
// key of six distinct values (some negative), two tight clusters 2e15 apart,
// and a column that is a function of column 0 so a grid over both is empty
// off its diagonal.
func tiesData(n int) [][]int64 {
	rng := rand.New(rand.NewSource(515))
	data := make([][]int64, 5)
	for c := range data {
		data[c] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		data[0][i] = rng.Int63n(2000) - 1000
		data[1][i] = 7
		data[2][i] = rng.Int63n(6) - 3
		data[3][i] = (rng.Int63n(2)*2-1)*1_000_000_000_000_000 + rng.Int63n(50)
		data[4][i] = data[0][i]*3 + rng.Int63n(3)
	}
	return data
}

func digestCases() []digestCase {
	const n = 20000
	var cases []digestCase
	cols := []int{5, 3, 2, 4, 2, 3}
	for _, name := range dataset.Names() {
		ds := dataset.ByName(name, n, 3)
		d := len(ds.Cols)
		l := Layout{SortDim: d - 1, Flatten: true}
		for g := 0; g < d-1; g++ {
			l.GridDims = append(l.GridDims, g)
			l.GridCols = append(l.GridCols, cols[g%len(cols)])
		}
		cases = append(cases, digestCase{name, ds.Cols, l})
	}
	ties := tiesData(n)
	return append(cases,
		digestCase{"ties-flat", ties, Layout{GridDims: []int{0, 4, 1}, GridCols: []int{40, 40, 3}, SortDim: 2, Flatten: true}},
		digestCase{"ties-equiwidth", ties, Layout{GridDims: []int{3, 0}, GridCols: []int{64, 8}, SortDim: 2, Flatten: false}},
		digestCase{"ties-nosort", ties, Layout{GridDims: []int{2, 0}, GridCols: []int{4, 9}, SortDim: -1, Flatten: true}},
		// Enough rows that the counting scatter runs over several row ranges.
		digestCase{"ties-flat-140k", tiesData(140_000), Layout{GridDims: []int{0, 4, 1}, GridCols: []int{40, 40, 3}, SortDim: 2, Flatten: true}},
	)
}

// buildDigest summarises what Build decided. models is the snapshot's models
// section — every grid dimension's step points and the cell table; sortSeq
// is the sort dimension read in physical order, which with the cell table
// fixed is every cell's sequence of sort values; rowSets is, cell by cell,
// the sorted original row numbers the cell holds — a multiset, so the order
// among rows with equal sort keys does not enter.
type buildDigest struct{ models, sortSeq, rowSets string }

func digestOf(t testing.TB, f *Flood) buildDigest {
	t.Helper()
	short := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	var d buildDigest
	d.models = short(encodeBytes(t, f.encodeModels))

	i64s := func(vs []int64) []byte {
		out := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
		}
		return out
	}
	if sd := f.layout.SortDim; sd >= 0 {
		d.sortSeq = short(i64s(f.t.Raw(sd)))
	}
	ids := f.t.Raw(f.t.NumCols() - 1)
	for c := 0; c < f.numCells; c++ {
		slices.Sort(ids[f.cellStart[c]:f.cellStart[c+1]])
	}
	d.rowSets = short(i64s(ids))
	return d
}

// buildDigests were recorded from Build at c4766b7, before the comparison
// sorts left it. They may change only with a change that means to build a
// different index. The models digests were re-recorded when the per-cell
// refinement models left the index: each is the models section that build
// wrote with no refinement models, its flag false. They were re-recorded
// again when the index came to keep each grid dimension's step points in
// place of its bucketing model; the sortSeq and rowSets digests held, so no
// row changed cell. All three were re-recorded for every flattened case
// when the grid came to be cut from value counts instead of a trained CDF,
// rows changing cell where the exact cut differs from the CDF's step: each
// Build was first shown to save to referenceBuild's bytes over its own step
// points, and the cut is held to its definition by TestGridCutIsQuantileCut.
// The equal-width case did not move.
var buildDigests = map[string]buildDigest{
	"sales":          {"d5ff72b5e2b2b9e5", "cd7e43595ff98148", "944b2fa8e128eee3"},
	"tpch":           {"2347abc6c5e2b508", "dc4cfee23c138553", "4e911d3820c276de"},
	"osm":            {"1c41835eab72cef3", "3ac8552b9906bf6e", "f2fcae19b78759ff"},
	"perfmon":        {"26c7ce2d1f68f9c8", "cd942c0314b60816", "40abef15845b1b01"},
	"ties-flat":      {"eccea41ad5e1243b", "f12b297a424913f6", "7c0cd412456b129b"},
	"ties-equiwidth": {"fcb7e077b9d80fb6", "6f3a68644e454b70", "5feaf9b6486811e9"},
	"ties-nosort":    {"a52bfcc99c0f828c", "", "604e9ce0b5425fd5"},
	"ties-flat-140k": {"c3f34c29dd20c519", "ed0a3ea00abc977a", "3cee9bea19025b2d"},
}

// referenceBuild is Build written the slow, obvious way over the step points
// st, one table per grid dimension: every row's cell from st, a comparison
// sort of the rows by (cell, sort key, input row), and a table compressed
// from the sorted columns, with aggregates where tbl has them and bitmap
// indexes built afterwards.
func referenceBuild(t testing.TB, tbl *colstore.Table, layout Layout, opts Options, st []steps) *Flood {
	t.Helper()
	n := tbl.NumRows()
	data := make([][]int64, tbl.NumCols())
	for c := range data {
		data[c] = tbl.Raw(c)
	}
	f := &Flood{layout: layout, opts: opts, steps: st, strides: layout.strides(), numCells: layout.NumCells(),
		parallelCutover: defaultParallelCutover}
	cell := make([]int, n)
	for gi, dim := range layout.GridDims {
		for r, v := range data[dim] {
			cell[r] += st[gi].bucket(v) * f.strides[gi]
		}
	}
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(cell[a], cell[b]); c != 0 || layout.SortDim < 0 {
			return cmp.Or(c, cmp.Compare(a, b))
		}
		return cmp.Or(cmp.Compare(data[layout.SortDim][a], data[layout.SortDim][b]), cmp.Compare(a, b))
	})
	f.cellStart = make([]int32, f.numCells+1)
	for _, r := range order {
		f.cellStart[cell[r]+1]++
	}
	for c := range f.numCells {
		f.cellStart[c+1] += f.cellStart[c]
	}
	sorted := make([][]int64, len(data))
	for c, col := range data {
		sorted[c] = make([]int64, n)
		for i, r := range order {
			sorted[c][i] = col[r]
		}
	}
	var err error
	if f.t, err = colstore.NewTable(tbl.Names(), sorted); err != nil {
		t.Fatal(err)
	}
	for c := range data {
		if tbl.HasAggregate(c) {
			f.t.EnableAggregate(c)
		}
	}
	f.t.EnableBitmapIndexes(opts.bitmapMaxCard())
	return f
}

// saved is f's snapshot bytes.
func saved(t testing.TB, f *Flood) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildSameIndex is the oracle for any change to how Build orders rows:
// the index Build makes saves to the bytes of referenceBuild's over the same
// step points, and the step points, the cell table, every cell's sort-value
// sequence and every cell's set of rows are the committed ones, and every
// physical row still carries the values of the original row it claims to be.
func TestBuildSameIndex(t *testing.T) {
	for _, tc := range digestCases() {
		tbl := withRowIDs(t, tc.data)
		f, err := Build(tbl, tc.layout, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(saved(t, f), saved(t, referenceBuild(t, tbl, tc.layout, Options{}, f.steps))) {
			t.Errorf("%s: Build and the reference build over its step points save to different bytes", tc.name)
		}
		if got, want := digestOf(t, f), buildDigests[tc.name]; got != want {
			t.Errorf("%s: build digest %q, want %q", tc.name, got, want)
		}
		ids := f.t.Raw(f.t.NumCols() - 1)
		for c, orig := range tc.data {
			for r, v := range f.t.Raw(c) {
				if v != orig[ids[r]] {
					t.Fatalf("%s: physical row %d claims to be row %d but column %d holds %d, not %d",
						tc.name, r, ids[r], c, v, orig[ids[r]])
				}
			}
		}
		empty := 0
		for c := 0; c < f.numCells; c++ {
			if f.cellStart[c] == f.cellStart[c+1] {
				empty++
			}
		}
		if strings.HasPrefix(tc.name, "ties-flat") && empty*2 < f.numCells {
			t.Errorf("%s: %d of %d cells empty, the case is meant to have an empty majority", tc.name, empty, f.numCells)
		}
	}
}

// TestBuildTieOrderIsInputOrder pins the tie-order contract: inside a cell,
// rows with equal sort keys (every row, when there is no sort dimension)
// keep the order they had in the input table, so a table has exactly one
// index and two builds of it save to the same bytes.
func TestBuildTieOrderIsInputOrder(t *testing.T) {
	for _, tc := range digestCases() {
		tbl := withRowIDs(t, tc.data)
		f, err := Build(tbl, tc.layout, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ids := f.t.Raw(f.t.NumCols() - 1)
		var keys []int64
		if tc.layout.SortDim >= 0 {
			keys = f.t.Raw(tc.layout.SortDim)
		}
		for c := 0; c < f.numCells; c++ {
			for r := int(f.cellStart[c]) + 1; r < int(f.cellStart[c+1]); r++ {
				if (keys == nil || keys[r-1] == keys[r]) && ids[r-1] > ids[r] {
					t.Fatalf("%s: cell %d holds row %d before row %d though their sort keys are equal",
						tc.name, c, ids[r-1], ids[r])
				}
			}
		}
		again, err := Build(tbl, tc.layout, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := f.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := again.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two builds of one table save to different bytes", tc.name)
		}
	}
}

// TestBuildAllocations pins the heap allocations of a 200k-row Build into 64
// cells: a few dozen, none of them per cell. Training a refinement model per
// cell cost 529.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tbl := build200kTable(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(tbl, ablationLayout, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 100 {
		t.Fatalf("a 200k-row Build into %d cells allocated %.0f times, want at most 100", ablationLayout.NumCells(), allocs)
	}
}
