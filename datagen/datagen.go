// Package datagen exposes the repository's dataset and workload generators
// for use by examples, benchmarks, and downstream experimentation. The
// datasets mirror the paper's evaluation suite (§7.3): a sales-database
// stand-in, TPC-H lineitem, an OpenStreetMap stand-in, and (through ByName) a
// performance monitoring log stand-in.
package datagen

import (
	flood "flood"
	"flood/internal/dataset"
	"flood/internal/workload"
)

// Dataset is a generated table plus its raw columns for ground-truth checks.
type Dataset = dataset.Dataset

// Sales generates the 6-attribute sales dataset stand-in.
func Sales(n int, seed int64) *Dataset { return dataset.Sales(n, seed) }

// TPCH generates the 7-column lineitem fact table at the given row count.
func TPCH(n int, seed int64) *Dataset { return dataset.TPCH(n, seed) }

// OSM generates the 6-attribute OpenStreetMap stand-in.
func OSM(n int, seed int64) *Dataset { return dataset.OSM(n, seed) }

// DatasetNames lists the four evaluation datasets in the paper's order.
func DatasetNames() []string { return dataset.Names() }

// ByName builds a named evaluation dataset; nil for unknown names.
func ByName(name string, n int, seed int64) *Dataset { return dataset.ByName(name, n, seed) }

// StandardWorkload draws the dataset's analyst-style OLAP mix (§7.3),
// calibrated to ~0.1% average selectivity.
func StandardWorkload(ds *Dataset, n int, seed int64) []flood.Query {
	return workload.Standard(ds, n, seed)
}

// RandomWorkload draws one of the Fig. 10 random workloads.
func RandomWorkload(ds *Dataset, n int, seed int64) []flood.Query {
	return workload.Random(ds, n, seed)
}

// SelectivityOrder returns the dataset's dimensions ordered from most to
// least selective under the given workload — the ordering used to tune the
// baseline indexes.
func SelectivityOrder(ds *Dataset, queries []flood.Query, seed int64) []int {
	g := workload.NewGenerator(ds, seed)
	return workload.OrderBySelectivity(g, queries)
}

// SplitTrainTest partitions a workload into train and test sets.
func SplitTrainTest(queries []flood.Query, trainFrac float64, seed int64) (train, test []flood.Query) {
	return workload.SplitTrainTest(queries, trainFrac, seed)
}
