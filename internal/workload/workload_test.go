package workload

import (
	"testing"

	"flood/internal/dataset"
	"flood/internal/query"
)

func TestStandardWorkloadsSelectivity(t *testing.T) {
	for _, name := range dataset.Names() {
		ds := dataset.ByName(name, 30000, 11)
		g := NewGenerator(ds, 12)
		queries := g.Draw(standardTemplates(ds), 60, defaultSelectivity)
		if len(queries) != 60 {
			t.Fatalf("%s: got %d queries", name, len(queries))
		}
		var total float64
		for _, q := range queries {
			total += g.Selectivity(q)
		}
		avg := total / float64(len(queries))
		// Calibration is approximate: accept a generous band around 0.1%.
		if avg < defaultSelectivity/20 || avg > defaultSelectivity*50 {
			t.Fatalf("%s: average selectivity %.5f too far from %.5f", name, avg, defaultSelectivity)
		}
	}
}

func TestQueriesAreValid(t *testing.T) {
	ds := dataset.TPCH(20000, 13)
	for _, q := range Standard(ds, 50, 14) {
		if q.Empty() {
			t.Fatalf("generated empty query: %+v", q.Ranges)
		}
		if q.NumFiltered() == 0 {
			t.Fatal("generated unfiltered query")
		}
		if len(q.Ranges) != ds.Table.NumCols() {
			t.Fatal("query dimensionality mismatch")
		}
	}
}

func TestRandomWorkloadsVary(t *testing.T) {
	ds := dataset.TPCH(20000, 17)
	a := Random(ds, 30, 1)
	b := Random(ds, 30, 2)
	if len(a) != 30 || len(b) != 30 {
		t.Fatal("wrong workload sizes")
	}
	diff := false
	for i := range a {
		for d := range a[i].Ranges {
			if a[i].Ranges[d] != b[i].Ranges[d] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds should give different workloads")
	}
}

func TestDimSelectivitiesOrdering(t *testing.T) {
	ds := dataset.TPCH(20000, 18)
	g := NewGenerator(ds, 19)
	// Build a workload where dim 0 (orderkey) is dramatically more
	// selective than dim 2 (quantity).
	tight := Template{Dims: []int{0}, Sels: []float64{0.001}, Weight: 1}
	wide := Template{Dims: []int{2}, Sels: []float64{0.5}, Weight: 1}
	var queries []query.Query
	for i := 0; i < 20; i++ {
		queries = append(queries, g.FromTemplate(tight), g.FromTemplate(wide))
	}
	sels := dimSelectivities(g, queries)
	if sels[0] >= sels[2] {
		t.Fatalf("orderkey (%.4f) should be more selective than quantity (%.4f)", sels[0], sels[2])
	}
	order := OrderBySelectivity(g, queries)
	if order[0] != 0 {
		t.Fatalf("most selective dim should be 0, got %d", order[0])
	}
	// Unfiltered dims report selectivity 1.
	if sels[5] != 1 {
		t.Fatalf("unfiltered dim selectivity = %f, want 1", sels[5])
	}
}

func TestSplitTrainTest(t *testing.T) {
	ds := dataset.Sales(10000, 20)
	queries := Standard(ds, 100, 21)
	train, test := SplitTrainTest(queries, 0.7, 22)
	if len(train)+len(test) < 100 {
		t.Fatalf("split lost queries: %d + %d", len(train), len(test))
	}
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("both splits must be non-empty")
	}
	_, test2 := SplitTrainTest(queries[:1], 0.99, 23)
	if len(test2) == 0 {
		t.Fatal("degenerate split must still produce a test set")
	}
}
