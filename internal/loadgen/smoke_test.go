package loadgen

import (
	"context"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	flood "flood"
	"flood/internal/dataset"
	"flood/internal/server"
	"flood/internal/workload"
)

// TestLoadgenServerSmoke is the CI smoke load test: a real floodserver
// behind real HTTP, driven by the open-loop runner with a zipfian shape
// mix, asserting zero hard errors and nonzero throughput. The duration
// defaults to a tier-1-friendly second and is raised by the CI smoke step
// via SERVE_SMOKE_DURATION (e.g. "10s").
func TestLoadgenServerSmoke(t *testing.T) {
	ds := dataset.Sales(5000, 41)
	queries := workload.Standard(ds, 20, 42)
	idx, err := flood.Build(ds.Table, queries, &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	a := flood.NewAdaptiveIndex(idx, &flood.AdaptiveConfig{
		DriftFactor: 1e9,
		Build:       &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 44},
	})
	runServerSmoke(t, server.New(a, &server.Config{BatchWindow: time.Millisecond}), false)
}

// TestLoadgenShardedSmoke is the same open-loop smoke run over a 4-shard
// store — the `floodserver -shards 4` serving path — additionally
// asserting that /stats carries the per-shard block and that the routed
// queries actually reached the shards.
func TestLoadgenShardedSmoke(t *testing.T) {
	ds := dataset.Sales(5000, 41)
	queries := workload.Standard(ds, 20, 42)
	sh, err := flood.NewSharded(ds.Table, queries, &flood.ShardedOptions{
		Shards: 4,
		Build:  &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 43},
	})
	if err != nil {
		t.Fatal(err)
	}
	runServerSmoke(t, server.New(sh, &server.Config{BatchWindow: time.Millisecond}), true)
}

// runServerSmoke drives the shared smoke flow against an already-built
// server: real HTTP, zipfian shapes over the price column, zero hard
// errors, plausible quantiles, cache hits, and — when sharded — a
// populated per-shard stats block.
func runServerSmoke(t *testing.T, srv *server.Server, sharded bool) {
	t.Helper()
	duration := time.Second
	if v := os.Getenv("SERVE_SMOKE_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad SERVE_SMOKE_DURATION %q: %v", v, err)
		}
		duration = d
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()

	ctx := context.Background()
	client := &Client{Base: hs.URL, TimeoutMillis: 2000}
	if err := client.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	schema, err := client.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	priceCol := schema.Columns[0]
	for _, c := range schema.Columns {
		if c.Name == "price" {
			priceCol = c
		}
	}
	shapes, err := Shapes(ShapeConfig{
		Table: "sales", Column: priceCol.Name, Min: priceCol.Min, Max: priceCol.Max,
		Dist: DistZipfian, Seed: 45,
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, &RunConfig{QPS: 400, Duration: duration, Workers: 32}, shapes, client.Query)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("smoke run had %d errors: %+v", rep.Errors, rep)
	}
	if rep.Completed == 0 || rep.Throughput <= 0 {
		t.Fatalf("smoke run produced no throughput: %+v", rep)
	}
	if rep.P50 == 0 || rep.P99 < rep.P50 {
		t.Fatalf("implausible latency quantiles: %+v", rep)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.AggQueries == 0 {
		t.Fatalf("server saw no aggregate queries: %+v", st)
	}
	// The zipfian mix repeats hot shapes, so the result cache must hit.
	if st.CacheHits == 0 {
		t.Fatalf("zipfian smoke run never hit the cache: %+v", st)
	}
	if sharded {
		if len(st.Shards) == 0 {
			t.Fatalf("sharded server published no per-shard stats: %+v", st)
		}
		var routed int64
		for _, si := range st.Shards {
			routed += si.Queries
		}
		if routed == 0 {
			t.Fatalf("no queries reached any shard: %+v", st.Shards)
		}
	} else if len(st.Shards) != 0 {
		t.Fatalf("flat server published a shard block: %+v", st.Shards)
	}
	t.Logf("smoke: %+v", rep)
}
