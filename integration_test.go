package flood

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flood/internal/colstore"
	"flood/internal/dataset"
	"flood/internal/workload"
)

// TestAllIndexesAgreeOnAllDatasets is the repository's cross-cutting
// integration test: on every evaluation dataset, the learned index and all
// eight baselines must return identical aggregates for the standard
// workload. Any disagreement means an index silently lost or fabricated
// rows.
func TestAllIndexesAgreeOnAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, name := range dataset.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ds := dataset.ByName(name, 8000, 301)
			queries := workload.Standard(ds, 25, 302)
			order := datagenSelectivityOrder(t, ds, queries)

			indexes := []Index{}
			learned, err := Build(ds.Table, queries, &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 303})
			if err != nil {
				t.Fatal(err)
			}
			indexes = append(indexes, learned)
			for _, kind := range baselines() {
				idx, err := BuildBaseline(kind, ds.Table, BaselineOptions{Dims: order, PageSize: 512})
				if err != nil {
					// Grid File may legitimately refuse heavily skewed
					// data (documented, matches the paper's N/A cells).
					if kind == GridFile {
						t.Logf("gridfile unavailable on %s: %v", name, err)
						continue
					}
					t.Fatalf("%s: %v", kind, err)
				}
				indexes = append(indexes, idx)
			}
			for qi, q := range queries {
				var want int64
				first := true
				for _, idx := range indexes {
					agg := NewCount()
					idx.Execute(q, agg)
					if first {
						want, first = agg.Result(), false
						continue
					}
					if agg.Result() != want {
						t.Fatalf("query %d: %s returned %d, others %d", qi, idx.Name(), agg.Result(), want)
					}
				}
			}
		})
	}
}

func datagenSelectivityOrder(t *testing.T, ds *dataset.Dataset, queries []Query) []int {
	t.Helper()
	g := workload.NewGenerator(ds, 304)
	return workload.OrderBySelectivity(g, queries)
}

// TestFloodAgainstFullScanProperty drives randomized tables, layouts, and
// queries through Flood and a full scan with testing/quick.
func TestFloodAgainstFullScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		d := 2 + rng.Intn(4)
		cols := make([][]int64, d)
		names := make([]string, d)
		for c := range cols {
			names[c] = string(rune('a' + c))
			cols[c] = make([]int64, n)
			span := int64(1) << uint(2+rng.Intn(20))
			for i := range cols[c] {
				cols[c][i] = rng.Int63n(span) - span/2
			}
		}
		tbl := colstore.MustNewTable(names, cols)
		layout := Layout{SortDim: rng.Intn(d), Flatten: rng.Intn(2) == 0}
		for dim := 0; dim < d; dim++ {
			if dim == layout.SortDim {
				continue
			}
			if rng.Intn(3) > 0 {
				layout.GridDims = append(layout.GridDims, dim)
				layout.GridCols = append(layout.GridCols, 1+rng.Intn(12))
			}
		}
		if len(layout.GridDims) == 0 {
			layout.GridDims = []int{(layout.SortDim + 1) % d}
			layout.GridCols = []int{4}
		}
		idx, err := BuildWithLayout(tbl, layout, nil)
		if err != nil {
			return false
		}
		fs, err := BuildBaseline(FullScan, tbl, BaselineOptions{})
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			q := NewQuery(d)
			nf := 1 + rng.Intn(d)
			for k := 0; k < nf; k++ {
				dim := rng.Intn(d)
				lo := cols[dim][rng.Intn(n)]
				hi := cols[dim][rng.Intn(n)]
				if lo > hi {
					lo, hi = hi, lo
				}
				q = q.WithRange(dim, lo, hi)
			}
			a1, a2 := NewCount(), NewCount()
			idx.Execute(q, a1)
			fs.Execute(q, a2)
			if a1.Result() != a2.Result() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTooManyDimensionsRejected documents the 64-dimension cap.
func TestTooManyDimensionsRejected(t *testing.T) {
	cols := make([][]int64, 65)
	names := make([]string, 65)
	for c := range cols {
		cols[c] = []int64{1, 2, 3}
		names[c] = string(rune('a'+c%26)) + string(rune('0'+c/26))
	}
	tbl := colstore.MustNewTable(names, cols)
	_, err := BuildWithLayout(tbl, Layout{GridDims: []int{0}, GridCols: []int{2}, SortDim: 1, Flatten: true}, nil)
	if err == nil {
		t.Fatal("65-dimension table should be rejected")
	}
}

// TestSingleRowTable exercises the degenerate-but-legal minimum.
func TestSingleRowTable(t *testing.T) {
	tbl := colstore.MustNewTable([]string{"a", "b"}, [][]int64{{7}, {9}})
	idx, err := BuildWithLayout(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := NewCount()
	idx.Execute(NewQuery(2).WithEquals(0, 7).WithEquals(1, 9), agg)
	if agg.Result() != 1 {
		t.Fatalf("single-row equality count = %d", agg.Result())
	}
	agg.Reset()
	idx.Execute(NewQuery(2).WithEquals(0, 8), agg)
	if agg.Result() != 0 {
		t.Fatal("non-matching equality should find nothing")
	}
}
