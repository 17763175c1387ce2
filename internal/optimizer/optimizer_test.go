package optimizer

import (
	"testing"

	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/dataset"
	"flood/internal/query"
	"flood/internal/workload"
)

func testModel(t *testing.T, ds *dataset.Dataset, queries []query.Query) *costmodel.Model {
	t.Helper()
	m, err := costmodel.Calibrate(ds.Table, queries[:min(len(queries), 25)], costmodel.CalibrationConfig{NumLayouts: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFindOptimalLayoutProducesValidLayout(t *testing.T) {
	ds := dataset.TPCH(20000, 52)
	queries := workload.Standard(ds, 40, 53)
	m := testModel(t, ds, queries)
	res, err := FindOptimalLayout(ds.Table, queries, m, Config{Seed: 54, GDSteps: 8, QuerySampleSize: 20, DataSampleSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Layout.Validate(ds.Table.NumCols()); err != nil {
		t.Fatalf("invalid layout: %v", err)
	}
	if res.PredictedCost <= 0 {
		t.Fatalf("predicted cost %f", res.PredictedCost)
	}
	// The layout must be buildable and correct.
	idx, err := core.Build(ds.Table, res.Layout, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:10] {
		agg := query.NewCount()
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
			t.Fatalf("learned layout wrong answer: %d vs %d", agg.Result(), want)
		}
	}
}

func TestLearnedLayoutBeatsNaive(t *testing.T) {
	// The learned layout should outperform an arbitrary untuned layout on
	// the training workload, measured by actual scan overhead.
	ds := dataset.OSM(30000, 55)
	queries := workload.Standard(ds, 50, 56)
	m := testModel(t, ds, queries)
	res, err := FindOptimalLayout(ds.Table, queries, m, Config{Seed: 57, GDSteps: 10, QuerySampleSize: 25, DataSampleSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	learned, err := core.Build(ds.Table, res.Layout, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Naive: grid over the two least useful dims.
	naive, err := core.Build(ds.Table, core.Layout{GridDims: []int{0}, GridCols: []int{4}, SortDim: 5, Flatten: false}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var learnedScan, naiveScan int64
	for _, q := range queries {
		agg := query.NewCount()
		st := learned.Execute(q, agg)
		learnedScan += st.Scanned
		agg.Reset()
		st = naive.Execute(q, agg)
		naiveScan += st.Scanned
	}
	if learnedScan >= naiveScan {
		t.Fatalf("learned layout scanned %d >= naive %d", learnedScan, naiveScan)
	}
}

func TestFindOptimalLayoutValidation(t *testing.T) {
	ds := dataset.Sales(1000, 58)
	if _, err := FindOptimalLayout(ds.Table, nil, &costmodel.Model{}, Config{}); err == nil {
		t.Fatal("want error for empty workload")
	}
	queries := workload.Standard(ds, 5, 59)
	if _, err := FindOptimalLayout(ds.Table, queries, nil, Config{}); err == nil {
		t.Fatal("want error for nil model")
	}
}

func TestFindOptimalLayoutAllocationBound(t *testing.T) {
	// A search allocates to set up — the sample, its CDFs and sorted
	// orders, the flattened queries, one column slice per restart — and
	// then descends in scratch. At the default effort that is about 330
	// allocations however many steps run; one allocation per gradient
	// step would add some 240, the per-step column copies this replaced
	// about 2,900.
	ds := dataset.TPCH(20000, 63)
	queries := workload.Standard(ds, 100, 64)
	m := syntheticModel(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := FindOptimalLayout(ds.Table, queries, m, Config{Seed: 65}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("FindOptimalLayout allocated %.0f times, want <= 400", allocs)
	}
}
