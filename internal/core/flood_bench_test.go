package core

import (
	"math/rand"
	"testing"

	"flood/internal/colstore"
	"flood/internal/dataset"
	"flood/internal/query"
)

// Ablation benchmarks for design choices of the paper: refinement through
// per-cell PLM models and flattening (CDF vs equi-width columns). Run with:
//
//	go test ./internal/core -bench Ablation -benchmem

func benchIndex(b *testing.B, layout Layout, opts Options) (*Flood, []query.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	n := 200_000
	data := make([][]int64, 3)
	names := []string{"a", "b", "c"}
	for d := range data {
		data[d] = make([]int64, n)
		for i := range data[d] {
			data[d][i] = rng.Int63n(1 << 20)
		}
	}
	tbl, err := colstore.NewTable(names, data)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(tbl, layout, opts)
	if err != nil {
		b.Fatal(err)
	}
	var queries []query.Query
	for i := 0; i < 64; i++ {
		lo := rng.Int63n(1 << 20)
		w := int64(1 << 14)
		queries = append(queries, query.NewQuery(3).
			WithRange(0, lo, lo+w).
			WithRange(2, lo/2, lo/2+w*4))
	}
	return idx, queries
}

func benchExecute(b *testing.B, idx *Flood, queries []query.Query) {
	agg := query.NewCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Reset()
		idx.Execute(queries[i%len(queries)], agg)
	}
}

var ablationLayout = Layout{GridDims: []int{0}, GridCols: []int{64}, SortDim: 2, Flatten: true}

func BenchmarkAblationRefinePLM(b *testing.B) {
	idx, qs := benchIndex(b, ablationLayout, Options{})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationFlattened(b *testing.B) {
	idx, qs := benchIndex(b, Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: true}, Options{})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationEquiWidth(b *testing.B) {
	idx, qs := benchIndex(b, Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: false}, Options{})
	benchExecute(b, idx, qs)
}

func BenchmarkBuild200k(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	n := 200_000
	data := make([][]int64, 3)
	for d := range data {
		data[d] = make([]int64, n)
		for i := range data[d] {
			data[d][i] = rng.Int63n(1 << 20)
		}
	}
	tbl, err := colstore.NewTable([]string{"a", "b", "c"}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tbl, ablationLayout, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild2M is the build the repository benchmark's olap_flat set-up
// waits for: TPC-H lineitem at 2M rows under the layout the frozen cost model
// picks there, five flattened grid dimensions and a sort dimension.
func BenchmarkBuild2M(b *testing.B) {
	tbl := dataset.TPCH(2_000_000, 1).Table
	layout := Layout{GridDims: []int{0, 1, 4, 2, 6}, GridCols: []int{5, 2, 2, 2, 9}, SortDim: 5, Flatten: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tbl, layout, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildMerge500k is one merge of the differential-update scheme:
// 1,000 buffered rows folded into a 500k-row index under its own layout.
func BenchmarkRebuildMerge500k(b *testing.B) {
	ds := dataset.TPCH(501_000, 1)
	base, extra := make([][]int64, len(ds.Cols)), make([][]int64, len(ds.Cols))
	for c, col := range ds.Cols {
		base[c], extra[c] = col[:500_000], col[500_000:]
	}
	tbl, err := colstore.NewTable(ds.Table.Names(), base)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(tbl, Layout{GridDims: []int{0, 1, 4, 2, 6}, GridCols: []int{5, 2, 2, 2, 9}, SortDim: 5, Flatten: true}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Rebuild(extra); err != nil {
			b.Fatal(err)
		}
	}
}
