package core

import (
	"math/rand"
	"testing"

	"flood/internal/query"
)

func TestExecuteParallelMatchesSerial(t *testing.T) {
	tbl, data := makeData(t, 20000, 4, 121)
	layout := Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: true}
	idx, err := Build(tbl, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 25; trial++ {
		q := randomQuery(rng, data, 4)
		serial := query.NewCount()
		idx.Execute(q, serial)
		for _, workers := range []int{0, 2, 4, 7} {
			par := query.NewCount()
			st := idx.Run(nil, q, par, workers, 0)
			if par.Result() != serial.Result() {
				t.Fatalf("workers=%d: parallel count %d != serial %d", workers, par.Result(), serial.Result())
			}
			if st.Matched != serial.Result() {
				t.Fatalf("workers=%d: stats.Matched %d", workers, st.Matched)
			}
		}
	}
}

func TestExecuteParallelSumAndMin(t *testing.T) {
	tbl, data := makeData(t, 10000, 3, 123)
	idx, err := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{32}, SortDim: 1, Flatten: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery(3).WithRange(0, 0, 800)
	sumS, sumP := query.NewSum(2), query.NewSum(2)
	idx.Execute(q, sumS)
	idx.Run(nil, q, sumP, 4, 0)
	if sumS.Result() != sumP.Result() {
		t.Fatalf("parallel sum %d != serial %d", sumP.Result(), sumS.Result())
	}
	minS, minP := query.NewMin(2), query.NewMin(2)
	idx.Execute(q, minS)
	idx.Run(nil, q, minP, 4, 0)
	if minS.Result() != minP.Result() {
		t.Fatalf("parallel min %d != serial %d", minP.Result(), minS.Result())
	}
	_ = data
}

func TestExecuteParallelEmptyQuery(t *testing.T) {
	tbl, _ := makeData(t, 1000, 3, 124)
	idx, _ := Build(tbl, Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 1, Flatten: true}, Options{})
	agg := query.NewCount()
	st := idx.Run(nil, query.NewQuery(3).WithRange(0, 10, 5), agg, 4, 0)
	if agg.Result() != 0 || st.Scanned != 0 {
		t.Fatal("empty query should do nothing in parallel mode")
	}
}

func BenchmarkExecuteParallel(b *testing.B) {
	idx, qs := benchIndex(b, Layout{GridDims: []int{0}, GridCols: []int{256}, SortDim: 2, Flatten: true}, Options{})
	for _, workers := range []int{1, 4} {
		name := "workers1"
		if workers == 4 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			agg := query.NewCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg.Reset()
				idx.Run(nil, qs[i%len(qs)], agg, workers, 0)
			}
		})
	}
}
