package flood

import (
	"math/rand"
	"testing"

	"flood/internal/dataset"
	"flood/internal/workload"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := dataset.TPCH(15000, 71)
	queries := workload.Standard(ds, 40, 72)
	idx, err := Build(ds.Table, queries, &Options{CalibrationLayouts: 3, GDSteps: 6, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "Flood" || idx.SizeBytes() <= 0 {
		t.Fatal("index metadata wrong")
	}
	if idx.PredictedCost() <= 0 || idx.Model() == nil {
		t.Fatal("learning metadata missing")
	}
	point := make([]int64, ds.Table.NumCols())
	for _, q := range queries[:15] {
		agg := NewCount()
		st := idx.Execute(q, agg)
		var want int64
		for i := 0; i < ds.Table.NumRows(); i++ {
			for d := range ds.Cols {
				point[d] = ds.Cols[d][i]
			}
			if q.Matches(point) {
				want++
			}
		}
		if agg.Result() != want {
			t.Fatalf("count = %d, want %d", agg.Result(), want)
		}
		if st.Total <= 0 {
			t.Fatal("stats missing timing")
		}
	}
}

func TestBuildRequiresWorkload(t *testing.T) {
	ds := dataset.Sales(500, 74)
	if _, err := Build(ds.Table, nil, nil); err == nil {
		t.Fatal("Build without workload should fail")
	}
}

func TestBuildWithLayoutAndReuseModel(t *testing.T) {
	ds := dataset.OSM(8000, 75)
	queries := workload.Standard(ds, 30, 76)
	m, err := Calibrate(ds.Table, queries, &Options{CalibrationLayouts: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Table, queries, &Options{CostModel: m, GDSteps: 5, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	manual, err := BuildWithLayout(ds.Table, Layout{GridDims: []int{2}, GridCols: []int{8}, SortDim: 3, Flatten: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if manual.PredictedCost() != 0 || manual.Model() != nil {
		t.Fatal("manual build should carry no learning metadata")
	}
	for _, q := range queries[:5] {
		a1, a2 := NewCount(), NewCount()
		idx.Execute(q, a1)
		manual.Execute(q, a2)
		if a1.Result() != a2.Result() {
			t.Fatalf("learned and manual layouts disagree: %d vs %d", a1.Result(), a2.Result())
		}
	}
}

// TestBuildWithLayoutRefusesHugeGrid: the reproduction from the issue — a
// 65536×65536 grid over four rows used to end the process with "runtime: out
// of memory"; hostile input gets an error.
func TestBuildWithLayoutRefusesHugeGrid(t *testing.T) {
	tbl, err := NewTable([]string{"a", "b", "c"}, [][]int64{{1, 2, 3, 4}, {4, 3, 2, 1}, {0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWithLayout(tbl, Layout{GridDims: []int{0, 1}, GridCols: []int{65536, 65536}, SortDim: 2, Flatten: true}, nil); err == nil {
		t.Fatal("a 2³²-cell layout over four rows was built")
	}
}

func TestBuildBaselineKinds(t *testing.T) {
	ds := dataset.Sales(4000, 79)
	rng := rand.New(rand.NewSource(80))
	queries := workload.Standard(ds, 20, 81)
	for _, kind := range baselines() {
		idx, err := BuildBaseline(kind, ds.Table, BaselineOptions{PageSize: 256})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		q := queries[rng.Intn(len(queries))]
		agg := NewCount()
		idx.Execute(q, agg)
		var want int64
		point := make([]int64, ds.Table.NumCols())
		for i := 0; i < ds.Table.NumRows(); i++ {
			for d := range ds.Cols {
				point[d] = ds.Cols[d][i]
			}
			if q.Matches(point) {
				want++
			}
		}
		if agg.Result() != want {
			t.Fatalf("%s: count = %d, want %d", kind, agg.Result(), want)
		}
	}
	if _, err := BuildBaseline("nope", ds.Table, BaselineOptions{}); err == nil {
		t.Fatal("unknown baseline should error")
	}
}

func TestSumWithAggregateColumn(t *testing.T) {
	ds := dataset.TPCH(6000, 82)
	priceCol := ds.ColumnIndex("extendedprice")
	ds.Table.EnableAggregate(priceCol)
	queries := workload.Standard(ds, 20, 83)
	idx, err := Build(ds.Table, queries, &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:8] {
		agg := NewSum(priceCol)
		idx.Execute(q, agg)
		var want int64
		point := make([]int64, ds.Table.NumCols())
		for i := 0; i < ds.Table.NumRows(); i++ {
			for d := range ds.Cols {
				point[d] = ds.Cols[d][i]
			}
			if q.Matches(point) {
				want += ds.Cols[priceCol][i]
			}
		}
		if agg.Result() != want {
			t.Fatalf("sum = %d, want %d", agg.Result(), want)
		}
	}
}
