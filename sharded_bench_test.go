package flood

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"flood/internal/core"
	"flood/internal/dataset"
	"flood/internal/workload"
)

// shardedBenchState is the shared 1M-row sales fixture for the sharded
// benchmarks, built once per test binary. The cost model is calibrated once
// and shared by every build below, so the Build benchmarks time partition +
// per-shard layout search + construction, not calibration.
var shardedBenchState struct {
	once    sync.Once
	ds      *dataset.Dataset
	queries []Query
	bopts   *Options
	flat    *Flood
	idx     *ShardedIndex // 4 shards, the serving configuration
	pruned  Query         // contained in shard 0's key range
	fanout  Query         // unbounded on the split dim: every shard survives
}

func shardedBenchSetup(b *testing.B) {
	b.Helper()
	s := &shardedBenchState
	s.once.Do(func() {
		const n = 1_000_000
		s.ds = dataset.Sales(n, 1301)
		s.queries = workload.Standard(s.ds, 40, 1302)
		s.bopts = &Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 1303}
		m, err := Calibrate(s.ds.Table, s.queries, s.bopts)
		if err != nil {
			panic(err)
		}
		s.bopts.CostModel = m
		s.flat, err = Build(s.ds.Table, s.queries, s.bopts)
		if err != nil {
			panic(err)
		}
		s.idx, err = NewSharded(s.ds.Table, s.queries, &ShardedOptions{
			Shards:   4,
			Build:    s.bopts,
			Adaptive: &AdaptiveConfig{DriftFactor: 1e9, MergeFraction: -1},
		})
		if err != nil {
			panic(err)
		}
		nd := s.ds.Table.NumCols()
		dim := s.idx.SplitDim()
		splits := s.idx.Splits()
		if len(splits) == 0 {
			panic("sharded bench fixture collapsed to one shard")
		}
		// pruned is a narrow window strictly below the first split point, so
		// the router prunes every shard but shard 0 and the query takes the
		// single-shard delegation path; the same predicate runs on the flat
		// index for the latency-parity comparison.
		lo := splits[0] / 4
		s.pruned = NewQuery(nd).WithRange(dim, lo, lo+(splits[0]-1)/8)
		// fanout leaves the split dimension unbounded and filters elsewhere,
		// so all four shards survive pruning and merge partial aggregates.
		s.fanout = NewQuery(nd).WithRange(s.ds.ColumnIndex("quantity"), 1, 3)
	})
}

// BenchmarkShardedBuild1M measures partitioned construction of the 1M-row
// sales table at increasing shard counts, sharing one pre-calibrated cost
// model. Per-shard builds run in parallel goroutines, so on a multi-core
// machine shards4/shards8 should beat shards1 near-linearly in cores; on a
// single-core runner the contract is parity (the partition + gather overhead
// stays in the noise). Recorded in BENCH_scan.json by `make bench`.
func BenchmarkShardedBuild1M(b *testing.B) {
	shardedBenchSetup(b)
	s := &shardedBenchState
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx, err := NewSharded(s.ds.Table, s.queries, &ShardedOptions{
					Shards: k,
					Build:  s.bopts,
				})
				if err != nil {
					b.Fatal(err)
				}
				if idx.NumRows() != s.ds.Table.NumRows() {
					b.Fatalf("shards hold %d rows, want %d", idx.NumRows(), s.ds.Table.NumRows())
				}
				idx.Close()
			}
		})
	}
}

// BenchmarkShardedExecute1M measures aggregate execution against the 4-shard
// 1M-row index. The pruned/flat pair is the routing-overhead contract: a
// query contained in one shard's key range must track the flat engine on the
// same predicate within ~10% and allocate nothing. fanout runs the
// every-shard-survives shape, where partial counts merge across shards; it
// reports helper_frac, the share of shards pool helpers ran.
func BenchmarkShardedExecute1M(b *testing.B) {
	shardedBenchSetup(b)
	s := &shardedBenchState
	run := func(name string, exec func(q Query, agg Aggregator) Stats, q Query) {
		b.Run(name, func(b *testing.B) {
			cnt := NewCount()
			// Warm scratch buffers and fill the adaptive workload reservoirs
			// (512 slots), past which sampling recycles Range storage in
			// place — the steady state the allocs/op column reports.
			for i := 0; i < 520; i++ {
				exec(q, cnt)
			}
			b.ReportAllocs()
			b.ResetTimer()
			_, since := core.HelperShare()
			for i := 0; i < b.N; i++ {
				cnt.Reset()
				exec(q, cnt)
			}
			b.StopTimer()
			if _, tasks := core.HelperShare(); name == "fanout" {
				b.ReportMetric(tasks.Frac(since), "helper_frac")
			}
			if cnt.Result() == 0 {
				b.Fatal("benchmark query matched nothing")
			}
		})
	}
	run("flat", s.flat.Execute, s.pruned)
	run("pruned", s.idx.Execute, s.pruned)
	run("fanout", s.idx.Execute, s.fanout)
}

// BenchmarkShardedLimit10 proves the LIMIT budget is shared across the
// fan-out: a LIMIT 10 select whose predicate survives on every shard stops
// after ten matches total, so scanned/op stays a vanishing fraction of the
// 1M-row table instead of ~10 rows per shard times four shards of scanning.
// Recorded in BENCH_scan.json by `make bench`.
func BenchmarkShardedLimit10(b *testing.B) {
	shardedBenchSetup(b)
	s := &shardedBenchState
	opts := &QueryOptions{Limit: 10}
	ctx := context.Background()
	var rowsOut, scanned int64
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, st, err := s.idx.SelectContext(ctx, s.fanout, opts, "order_id")
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
			sink += rows.Int64(0)
		}
		rowsOut += int64(rows.Len())
		scanned += st.Scanned
		rows.Close()
	}
	b.StopTimer()
	if rowsOut != int64(b.N)*10 {
		b.Fatalf("limited select returned %d rows over %d ops, want 10 each", rowsOut, b.N)
	}
	b.ReportMetric(float64(rowsOut)/float64(b.N), "rows/op")
	b.ReportMetric(float64(scanned)/float64(b.N), "scanned/op")
	_ = sink
}
