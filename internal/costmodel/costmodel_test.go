package costmodel

import (
	"math"
	"testing"

	"flood/internal/core"
	"flood/internal/dataset"
	"flood/internal/query"
	"flood/internal/workload"
)

func calibrated(t *testing.T) (*Model, *dataset.Dataset, []query.Query) {
	t.Helper()
	ds := dataset.TPCH(20000, 31)
	queries := workload.Standard(ds, 40, 32)
	m, err := Calibrate(ds.Table, queries, CalibrationConfig{NumLayouts: 5, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	return m, ds, queries
}

func TestCalibrateProducesPositiveWeights(t *testing.T) {
	m, ds, queries := calibrated(t)
	est := NewEstimator(ds.Table, 1500, 34)
	fq := est.Flatten(queries[0])
	cand := Candidate{GridDims: []int{5, 2}, Cols: []float64{16, 8}, SortDim: 6}
	f := est.Estimate(fq, cand)
	if pt := m.PredictTime(f); pt < 0 || math.IsNaN(pt) {
		t.Fatalf("predicted time %f invalid", pt)
	}
	x := f.Vector()
	if m.WS.Predict(x) <= 0 {
		t.Fatalf("ws prediction should be positive, got %f", m.WS.Predict(x))
	}
}

func TestCalibrateValidation(t *testing.T) {
	ds := dataset.Sales(1000, 35)
	if _, err := Calibrate(ds.Table, nil, CalibrationConfig{}); err == nil {
		t.Fatal("want error for empty workload")
	}
}

func TestMeasuredFeaturesConsistent(t *testing.T) {
	ds := dataset.TPCH(10000, 36)
	queries := workload.Standard(ds, 10, 37)
	layout := core.Layout{GridDims: []int{5, 1}, GridCols: []int{10, 5}, SortDim: 6, Flatten: true}
	idx, err := core.Build(ds.Table, layout, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		agg := query.NewCount()
		st := idx.Execute(q, agg)
		f := Measured(idx, q, st)
		if f.TotalCells != 50 {
			t.Fatalf("TotalCells = %f, want 50", f.TotalCells)
		}
		if f.Nc != float64(st.CellsVisited) || f.Ns != float64(st.Scanned) {
			t.Fatal("Nc/Ns mismatch with stats")
		}
		if f.AvgCellSize != 10000.0/50 {
			t.Fatalf("AvgCellSize = %f", f.AvgCellSize)
		}
		if f.ExactFraction < 0 || f.ExactFraction > 1 {
			t.Fatalf("ExactFraction = %f out of range", f.ExactFraction)
		}
		if q.Ranges[6].Present && f.SortFiltered != 1 {
			t.Fatal("SortFiltered should be 1 when the sort dim is filtered")
		}
	}
}

func TestEstimatorTracksMeasured(t *testing.T) {
	// The sample-based estimate of Ns should be within a small factor of
	// the measured value for a mid-size layout.
	ds := dataset.TPCH(30000, 38)
	queries := workload.Standard(ds, 15, 39)
	layout := core.Layout{GridDims: []int{5, 6}, GridCols: []int{12, 6}, SortDim: 2, Flatten: true}
	idx, err := core.Build(ds.Table, layout, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(ds.Table, 4000, 40)
	cand := Candidate{GridDims: []int{5, 6}, Cols: []float64{12, 6}, SortDim: 2}
	var measTotal, estTotal float64
	for _, q := range queries {
		agg := query.NewCount()
		st := idx.Execute(q, agg)
		f := est.Estimate(est.Flatten(q), cand)
		measTotal += float64(st.Scanned)
		estTotal += f.Ns
	}
	if measTotal == 0 {
		t.Skip("workload matched nothing")
	}
	ratio := estTotal / measTotal
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("estimated/measured Ns ratio %.2f too far from 1 (est %f meas %f)", ratio, estTotal, measTotal)
	}
}

func TestEstimatorMoreCellsFewerScanned(t *testing.T) {
	// Growing the grid should monotonically (roughly) shrink estimated
	// scan counts for a filtered query.
	ds := dataset.OSM(20000, 41)
	est := NewEstimator(ds.Table, 3000, 42)
	q := query.NewQuery(6).WithRange(2, 40_000_000, 41_000_000).WithRange(3, -75_000_000, -73_000_000)
	fq := est.Flatten(q)
	prevNs := math.Inf(1)
	for _, c := range []float64{2, 8, 32} {
		f := est.Estimate(fq, Candidate{GridDims: []int{2, 3}, Cols: []float64{c, c}, SortDim: 1})
		if f.Ns > prevNs*1.5 {
			t.Fatalf("Ns grew sharply with more columns: %f -> %f at c=%f", prevNs, f.Ns, c)
		}
		prevNs = f.Ns
	}
}

func TestPredictTimeRefinementTerm(t *testing.T) {
	m, ds, queries := calibrated(t)
	est := NewEstimator(ds.Table, 1000, 43)
	var q query.Query
	found := false
	for _, qq := range queries {
		if qq.Ranges[6].Present {
			q, found = qq, true
			break
		}
	}
	if !found {
		t.Skip("no query filters receiptdate")
	}
	cand := Candidate{GridDims: []int{5}, Cols: []float64{32}, SortDim: 6}
	f := est.Estimate(est.Flatten(q), cand)
	if f.SortFiltered != 1 {
		t.Fatal("expected sort-filtered feature")
	}
	withRefine := m.PredictTime(f)
	f2 := f
	f2.SortFiltered = 0
	withoutRefine := m.PredictTime(f2)
	// The wr·Nc term must only appear when the sort dim is filtered;
	// predictions may differ through the forests too, so simply assert
	// both are finite and non-negative.
	if withRefine < 0 || withoutRefine < 0 {
		t.Fatal("negative predicted times")
	}
}

func TestFlattenQueryBounds(t *testing.T) {
	ds := dataset.Perfmon(10000, 44)
	est := NewEstimator(ds.Table, 2000, 45)
	q := query.NewQuery(6).WithRange(2, 10, 50).WithEquals(1, 3)
	fq := est.Flatten(q)
	if !fq.Present[2] || !fq.Present[1] || fq.Present[0] {
		t.Fatal("presence flags wrong")
	}
	if fq.Filtered != 2 {
		t.Fatalf("Filtered = %d", fq.Filtered)
	}
	for dim := 0; dim < 6; dim++ {
		if fq.Lo[dim] < 0 || fq.Hi[dim] > 1 || fq.Lo[dim] > fq.Hi[dim]+1e-9 {
			t.Fatalf("dim %d: flattened range [%f, %f] invalid", dim, fq.Lo[dim], fq.Hi[dim])
		}
	}
}

func TestCandidateNumCells(t *testing.T) {
	c := Candidate{Cols: []float64{4, 2.5, 1}}
	if got := c.NumCells(); got != 10 {
		t.Fatalf("NumCells = %f, want 10", got)
	}
	if (Candidate{}).NumCells() != 1 {
		t.Fatal("empty candidate should have 1 cell")
	}
}

// BenchmarkCalibrate100k is one live calibration as the repository
// benchmark's learn_build runs it: 100k rows, 100 training queries, ten
// random layouts built and timed, three forests trained.
func BenchmarkCalibrate100k(b *testing.B) {
	ds := dataset.TPCH(100_000, 1)
	queries := workload.Standard(ds, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(ds.Table, queries, CalibrationConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
