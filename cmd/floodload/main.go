// Command floodload drives an open-loop workload against a floodserver and
// reports coordinated-omission-safe latency quantiles, throughput, shed
// rate, and cache hit rate as JSON (see docs/SERVING.md).
//
// The arrival schedule is fixed (request i is due at start + i/qps) and
// latency is measured from the scheduled time, so a slow server is charged
// its backlog instead of quietly slowing the offered load. Query shapes
// are drawn over a predicate column's domain (fetched from GET /schema)
// with zipfian, hotspot, or uniform skew; hot shapes repeat as identical
// SQL, exercising the server's result cache like real dashboard traffic.
//
//	floodload -addr http://localhost:8080 -qps 2000 -duration 30s \
//	          -dist zipfian -column price -out report.json
//
// With -inprocess N, floodload starts its own floodserver over a fresh
// N-row sales dataset on a loopback listener and drives it through real
// HTTP — the one-command form the CI serve-smoke job uses. The recorded
// serving numbers are the repository benchmark's serve_read and serve_mixed
// workloads (benchmark/README.md), not a file this tool writes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	flood "flood"
	"flood/datagen"
	"flood/internal/loadgen"
	"flood/internal/server"
)

// output is the report document: the runner's report plus the
// run's configuration and the server-side stats delta.
type output struct {
	// Config echoes the run parameters.
	Config struct {
		Addr     string  `json:"addr"`
		QPS      float64 `json:"qps"`
		Duration string  `json:"duration"`
		Dist     string  `json:"dist"`
		Column   string  `json:"column"`
		Workers  int     `json:"workers"`
		Warmup   string  `json:"warmup"`
		Rows     int     `json:"rows,omitempty"`
		Shards   int     `json:"shards,omitempty"`
	} `json:"config"`
	// Report is the client-side measurement.
	Report loadgen.Report `json:"report"`
	// Server is the server-side stats delta across the run (when the
	// /stats endpoint was reachable).
	Server *server.Stats `json:"server,omitempty"`
	// ShardSkew is the max/mean ratio of per-shard queries served during
	// the run: 1.0 is perfectly balanced routing, k is every query landing
	// on one of k shards. Absent for an unsharded server.
	ShardSkew float64 `json:"shard_skew,omitempty"`
	// Sharded is the -compare-shards repeat of the same run against an
	// in-process sharded server, for side-by-side flat-vs-sharded latency.
	Sharded *output `json:"sharded,omitempty"`
}

// runParams carries the measurement knobs through a single load run.
type runParams struct {
	qps           float64
	duration      time.Duration
	warmup        time.Duration
	workers       int
	dist          string
	column        string
	buckets, span int
	seed, timeout int64
	shards        int
}

// runLoad drives one complete measurement against base: wait for readiness,
// fetch the schema, draw shapes, run the open-loop schedule, and delta the
// server-side stats.
func runLoad(ctx context.Context, base string, p runParams) output {
	client := &loadgen.Client{
		Base:          base,
		TimeoutMillis: p.timeout,
		HTTP: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        p.workers * 2,
			MaxIdleConnsPerHost: p.workers * 2,
		}},
	}
	if err := client.WaitReady(ctx, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	schema, err := client.Schema(ctx)
	if err != nil {
		log.Fatalf("fetching /schema: %v", err)
	}
	col, err := pickColumn(schema, p.column)
	if err != nil {
		log.Fatal(err)
	}

	total := int(p.qps * p.duration.Seconds() * 1.1)
	if total < 1024 {
		total = 1024
	}
	shapes, err := loadgen.Shapes(loadgen.ShapeConfig{
		Table: "t", Column: col.Name, Min: col.Min, Max: col.Max,
		Buckets: p.buckets, SpanBuckets: p.span,
		Dist: loadgen.Dist(p.dist), Seed: p.seed,
	}, total)
	if err != nil {
		log.Fatal(err)
	}

	before, statsOK := serverStats(ctx, client)
	log.Printf("driving %s: %.0f qps for %v (%s over %s [%d,%d])",
		base, p.qps, p.duration, p.dist, col.Name, col.Min, col.Max)
	rep, err := loadgen.Run(ctx, &loadgen.RunConfig{
		QPS: p.qps, Duration: p.duration, Workers: p.workers, Warmup: p.warmup,
	}, shapes, client.Query)
	if err != nil {
		log.Fatal(err)
	}

	var doc output
	doc.Config.Addr = base
	doc.Config.QPS = p.qps
	doc.Config.Duration = p.duration.String()
	doc.Config.Dist = p.dist
	doc.Config.Column = col.Name
	doc.Config.Workers = p.workers
	doc.Config.Warmup = p.warmup.String()
	doc.Config.Rows = schema.Rows
	doc.Config.Shards = p.shards
	doc.Report = rep
	if after, ok := serverStats(ctx, client); ok && statsOK {
		delta := statsDelta(before, after)
		doc.Server = &delta
		doc.ShardSkew = shardSkew(delta.Shards)
		if doc.ShardSkew > 0 {
			log.Printf("shard skew: %.2f (max/mean of per-shard queries across %d shards)",
				doc.ShardSkew, len(delta.Shards))
		}
	}
	log.Printf("run done: %d sent, %.0f qps achieved, p50 %dµs p99 %dµs, shed %.2f%%, cache hit %.1f%%",
		rep.Sent, rep.Throughput, rep.P50, rep.P99, 100*rep.ShedRate, 100*rep.CacheHitRate)
	return doc
}

func main() {
	var (
		addr      = flag.String("addr", "", "floodserver base URL, e.g. http://localhost:8080")
		inprocess = flag.Int("inprocess", 0, "start an in-process floodserver over a sales dataset with this many rows instead of -addr")
		shardsN   = flag.Int("shards", 0, "partition the in-process store into N range shards (0 = flat; -inprocess only)")
		compare   = flag.Int("compare-shards", 0, "after the primary run, repeat it against an in-process N-shard server and embed the result as .sharded (-inprocess only)")
		qps       = flag.Float64("qps", 1000, "open-loop arrival rate")
		duration  = flag.Duration("duration", 10*time.Second, "scheduled load duration")
		workers   = flag.Int("workers", 64, "client-side in-flight bound")
		warmup    = flag.Duration("warmup", time.Second, "leading portion excluded from latency quantiles")
		dist      = flag.String("dist", "zipfian", "shape distribution: zipfian, hotspot, uniform")
		column    = flag.String("column", "", "predicate column (default: first int64 column from /schema)")
		buckets   = flag.Int("buckets", 256, "domain buckets for shape alignment")
		span      = flag.Int("span", 4, "buckets covered by one predicate")
		seed      = flag.Int64("seed", 1, "shape-drawing seed")
		timeout   = flag.Int64("timeout-ms", 2000, "per-request timeout_ms sent to the server")
		out       = flag.String("out", "", "write the JSON report here (default stdout)")
		srvWindow = flag.Duration("server-batch-window", time.Millisecond, "in-process server's micro-batch gather window (-inprocess only)")
		srvCache  = flag.Int("server-cache", 0, "in-process server's result-cache entries (0 = default, negative disables; -inprocess only)")
	)
	flag.Parse()
	if *addr == "" && *inprocess <= 0 {
		fmt.Fprintln(os.Stderr, "usage: floodload -addr URL [flags]\n       floodload -inprocess ROWS [flags]")
		os.Exit(2)
	}

	if *compare > 0 && *inprocess <= 0 {
		log.Fatal("-compare-shards needs -inprocess (it builds its own sharded server)")
	}

	ctx := context.Background()
	p := runParams{
		qps: *qps, duration: *duration, warmup: *warmup, workers: *workers,
		dist: *dist, column: *column, buckets: *buckets, span: *span,
		seed: *seed, timeout: *timeout, shards: *shardsN,
	}
	cfg := &server.Config{BatchWindow: *srvWindow, CacheEntries: *srvCache}

	base := *addr
	if *inprocess > 0 {
		hs, srv := startInProcess(*inprocess, *shardsN, *seed, cfg)
		defer func() {
			hs.Close()
			if err := srv.Close(); err != nil {
				log.Printf("server close: %v", err)
			}
		}()
		base = hs.URL
	}

	doc := runLoad(ctx, base, p)

	if *compare > 0 {
		hs, srv := startInProcess(*inprocess, *compare, *seed, cfg)
		ps := p
		ps.shards = *compare
		sharded := runLoad(ctx, hs.URL, ps)
		doc.Sharded = &sharded
		hs.Close()
		if err := srv.Close(); err != nil {
			log.Printf("sharded server close: %v", err)
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
}

// startInProcess builds a sales index — flat, or sharded when shards > 0 —
// and serves it on a loopback listener (real HTTP, in this process).
func startInProcess(rows, shards int, seed int64, cfg *server.Config) (*httptest.Server, *server.Server) {
	ds := datagen.Sales(rows, seed)
	queries := datagen.StandardWorkload(ds, 40, seed+1)
	t0 := time.Now()
	var store flood.Store
	if shards > 0 {
		sh, err := flood.NewSharded(ds.Table, queries,
			&flood.ShardedOptions{Shards: shards, Build: &flood.Options{Seed: seed + 2}})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("built sales (%d rows): %d shards split on %s in %v",
			rows, sh.NumShards(), ds.Table.Name(sh.SplitDim()), time.Since(t0).Round(time.Millisecond))
		store = sh
	} else {
		idx, err := flood.Build(ds.Table, queries, &flood.Options{Seed: seed + 2})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("built sales (%d rows): layout %s in %v", rows, idx.Layout(), time.Since(t0).Round(time.Millisecond))
		store = flood.NewAdaptiveIndex(idx, nil)
	}
	srv := server.New(store, cfg)
	hs := httptest.NewServer(srv.Handler())
	return hs, srv
}

// pickColumn resolves the predicate column: the named one, or the first
// int64 column with a non-degenerate domain.
func pickColumn(schema server.SchemaResponse, name string) (server.ColumnInfo, error) {
	if name != "" {
		for _, c := range schema.Columns {
			if c.Name == name {
				return c, nil
			}
		}
		return server.ColumnInfo{}, fmt.Errorf("column %q not in server schema", name)
	}
	for _, c := range schema.Columns {
		if c.Kind == "int64" && c.Max > c.Min {
			return c, nil
		}
	}
	for _, c := range schema.Columns {
		if c.Max > c.Min {
			return c, nil
		}
	}
	return server.ColumnInfo{}, fmt.Errorf("no usable predicate column in server schema")
}

func serverStats(ctx context.Context, c *loadgen.Client) (server.Stats, bool) {
	st, err := c.Stats(ctx)
	if err != nil {
		log.Printf("fetching /stats: %v", err)
		return server.Stats{}, false
	}
	return st, true
}

// shardSkew is the max/mean ratio of per-shard queries in a stats delta's
// shard block (0 when unsharded or no shard saw a query).
func shardSkew(shards []flood.ShardStat) float64 {
	if len(shards) == 0 {
		return 0
	}
	var sum, max int64
	for _, s := range shards {
		sum += s.Queries
		if s.Queries > max {
			max = s.Queries
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(shards)) / float64(sum)
}

// statsDelta subtracts counter fields so the report shows only this run's
// server-side activity; gauges (in-flight, epoch, rows) keep their final
// value. Per-shard query/relearn/merge counters are deltaed the same way
// so the skew reflects only this run's routing.
func statsDelta(before, after server.Stats) server.Stats {
	d := after
	d.Requests -= before.Requests
	d.AggQueries -= before.AggQueries
	d.Selects -= before.Selects
	d.Mutations -= before.Mutations
	d.InsertedRows -= before.InsertedRows
	d.Shed -= before.Shed
	d.Timeouts -= before.Timeouts
	d.Errors -= before.Errors
	d.QueuedRequests -= before.QueuedRequests
	d.QueueWaitMicros -= before.QueueWaitMicros
	d.Batches -= before.Batches
	d.BatchedQueries -= before.BatchedQueries
	d.MultiBatches -= before.MultiBatches
	d.CacheHits -= before.CacheHits
	d.CacheMisses -= before.CacheMisses
	if len(before.Shards) == len(after.Shards) {
		d.Shards = append([]flood.ShardStat(nil), after.Shards...)
		for i := range d.Shards {
			d.Shards[i].Queries -= before.Shards[i].Queries
			d.Shards[i].Relearns -= before.Shards[i].Relearns
			d.Shards[i].Merges -= before.Shards[i].Merges
		}
	}
	if d.Batches > 0 {
		d.AvgBatch = float64(d.BatchedQueries) / float64(d.Batches)
	} else {
		d.AvgBatch = 0
	}
	return d
}
