package workload

import (
	"math/rand"

	"flood/internal/dataset"
	"flood/internal/query"
)

// defaultSelectivity is the paper's workload-wide average selectivity
// (§7.3: "0.1%").
const defaultSelectivity = 0.001

// Standard generates the dataset's Fig. 7 OLAP workload: the templated
// analyst-style query mix described in §7.3, calibrated to ~0.1% average
// selectivity.
func Standard(ds *dataset.Dataset, n int, seed int64) []query.Query {
	g := NewGenerator(ds, seed)
	return g.Draw(standardTemplates(ds), n, defaultSelectivity)
}

func standardTemplates(ds *dataset.Dataset) []Template {
	col := ds.ColumnIndex
	switch ds.Name {
	case "sales":
		// Report-generation queries: one dominant selective dimension
		// (order_id), mixed with date/customer/product slices.
		return []Template{
			{Dims: []int{col("order_id")}, Sels: []float64{0.001}, Weight: 4},
			{Dims: []int{col("date"), col("customer")}, Sels: evenSels(0.001, 2), Weight: 2},
			{Dims: []int{col("product"), col("date")}, Sels: []float64{0, 0.05}, Equality: []bool{true, false}, Weight: 2},
			{Dims: []int{col("quantity"), col("price"), col("date")}, Sels: evenSels(0.001, 3), Weight: 1},
			{Dims: []int{col("customer")}, Sels: []float64{0.001}, Equality: []bool{true}, Weight: 1},
		}
	case "tpch":
		// Filters commonly found in the TPC-H query set (§7.3).
		return []Template{
			{Dims: []int{col("shipdate"), col("discount"), col("quantity")}, Sels: evenSels(0.001, 3), Weight: 3}, // Q6-style
			{Dims: []int{col("shipdate"), col("receiptdate")}, Sels: evenSels(0.001, 2), Weight: 2},
			{Dims: []int{col("orderkey")}, Sels: []float64{0.001}, Weight: 2},
			{Dims: []int{col("suppkey"), col("shipdate")}, Sels: evenSels(0.001, 2), Weight: 2},
			{Dims: []int{col("quantity"), col("discount")}, Sels: evenSels(0.001, 2), Weight: 1},
			{Dims: []int{col("receiptdate"), col("suppkey"), col("quantity")}, Sels: evenSels(0.001, 3), Weight: 1},
		}
	case "osm":
		// Analytics questions from §7.3: nodes added in a time window,
		// buildings in a lat-lon rectangle, etc. 1-3 dims per query.
		return []Template{
			{Dims: []int{col("lat"), col("lon")}, Sels: evenSels(0.001, 2), Weight: 3},
			{Dims: []int{col("timestamp")}, Sels: []float64{0.001}, Weight: 2},
			{Dims: []int{col("type"), col("timestamp")}, Sels: []float64{0, 0.01}, Equality: []bool{true, false}, Weight: 2},
			{Dims: []int{col("lat"), col("lon"), col("category")}, Sels: []float64{0.03, 0.03, 0}, Equality: []bool{false, false, true}, Weight: 2},
			{Dims: []int{col("id")}, Sels: []float64{0.001}, Weight: 1},
		}
	case "perfmon":
		return []Template{
			{Dims: []int{col("time"), col("machine")}, Sels: []float64{0.02, 0}, Equality: []bool{false, true}, Weight: 3},
			{Dims: []int{col("cpu"), col("time")}, Sels: evenSels(0.001, 2), Weight: 2},
			{Dims: []int{col("mem"), col("swap")}, Sels: evenSels(0.001, 2), Weight: 2},
			{Dims: []int{col("load"), col("time"), col("cpu")}, Sels: evenSels(0.001, 3), Weight: 1},
			{Dims: []int{col("machine"), col("cpu")}, Sels: []float64{0, 0.01}, Equality: []bool{true, false}, Weight: 1},
		}
	default: // any other table: filter the first k dims
		d := ds.Table.NumCols()
		var ts []Template
		for k := 1; k <= d; k++ {
			dims := make([]int, k)
			for i := range dims {
				dims[i] = i
			}
			ts = append(ts, Template{Dims: dims, Sels: evenSels(0.001, k), Weight: 1})
		}
		return ts
	}
}

// Random generates one of the Fig. 10 random workloads: at most 10 distinct
// query types, each over up to 6 dims chosen uniformly at random, with
// random per-dimension selectivities targeting ~0.1% total and extra
// selectivity on key attributes.
func Random(ds *dataset.Dataset, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	g := NewGenerator(ds, rng.Int63())
	d := ds.Table.NumCols()
	nTypes := 1 + rng.Intn(10)
	var ts []Template
	for t := 0; t < nTypes; t++ {
		k := 1 + rng.Intn(min(6, d))
		dims := rng.Perm(d)[:k]
		sels := make([]float64, k)
		// Random split of the total selectivity across dims, biased
		// toward key attributes (column 0).
		for i := range sels {
			sels[i] = rng.Float64()
		}
		base := evenSels(defaultSelectivity, k)
		for i := range sels {
			sels[i] = clamp01(base[i] * (0.25 + 1.5*sels[i]))
			if dims[i] == 0 {
				sels[i] = clamp01(sels[i] * 0.2) // more selective on keys
			}
		}
		ts = append(ts, Template{Dims: dims, Sels: sels, Weight: 1 + rng.Float64()*3})
	}
	return g.Draw(ts, n, defaultSelectivity)
}
