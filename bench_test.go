package flood

// One Go benchmark per paper artifact (table/figure). Each benchmark drives
// the corresponding experiment from internal/bench at a reduced scale; run
// cmd/floodbench with -scale for full-size reproductions. The benchmark
// output (stderr tables) is the regenerated artifact; ns/op reflects the
// end-to-end experiment cost, not a single query.

import (
	"io"
	"testing"

	"flood/internal/bench"
	"flood/internal/dataset"
	"flood/internal/workload"
)

func benchCfg(out io.Writer) bench.Config {
	return bench.Config{
		Scale:              30_000,
		Queries:            40,
		Seed:               2020,
		CalibrationLayouts: 3,
		PageSizes:          []int{1024},
		Fast:               true,
		Out:                out,
	}.WithDefaults()
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		// Reports go to the CLI (cmd/floodbench); benchmarks only time
		// the experiment.
		if err := e.Run(benchCfg(io.Discard)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkFig5ScanWeight(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig7Overall(b *testing.B)        { runExperiment(b, "fig7") }
func BenchmarkFig8Pareto(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9Workloads(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10Dynamic(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkFig11Ablation(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12DatasetSize(b *testing.B)   { runExperiment(b, "fig12a") }
func BenchmarkFig12Selectivity(b *testing.B)   { runExperiment(b, "fig12b") }
func BenchmarkFig13Dimensions(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkFig14CostTradeoff(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15SampleRecords(b *testing.B) { runExperiment(b, "fig15") }
func BenchmarkFig16SampleQueries(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkTable2Breakdown(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkTable3Robustness(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkTable4Creation(b *testing.B)     { runExperiment(b, "table4") }

// BenchmarkQueryFlood measures steady-state per-query latency of a learned
// index on the TPC-H workload — the unit the paper's figures report.
func BenchmarkQueryFlood(b *testing.B) { benchQuery(b, "") }

// BenchmarkQueryClustered is the per-query latency of the strongest
// single-dimensional baseline on the same workload.
func BenchmarkQueryClustered(b *testing.B) { benchQuery(b, Clustered) }

// BenchmarkQueryFullScan is the per-query latency of a full scan on the same
// workload.
func BenchmarkQueryFullScan(b *testing.B) { benchQuery(b, FullScan) }

func benchQuery(b *testing.B, kind BaselineKind) {
	ds := dataset.TPCH(100_000, 2020)
	queries := workload.Standard(ds, 64, 2021)
	var idx Index
	var err error
	if kind == "" {
		idx, err = Build(ds.Table, queries, &Options{CalibrationLayouts: 3, GDSteps: 8, Seed: 1})
	} else {
		idx, err = BuildBaseline(kind, ds.Table, BaselineOptions{})
	}
	if err != nil {
		b.Fatal(err)
	}
	agg := NewCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Reset()
		idx.Execute(queries[i%len(queries)], agg)
	}
}
