// Command floodserver serves floodsql over HTTP against a learned adaptive
// index, with micro-batched execution, admission control, per-request
// deadlines, and an epoch-keyed result cache (see docs/SERVING.md).
//
// The store comes from one of three places: a synthetic dataset built at
// startup (-dataset/-rows), a snapshot written by floodcli -save (-load),
// or a durable directory (-dir) that is opened if it exists and created
// otherwise — in durable mode every acknowledged write is WAL-fsynced and
// shutdown checkpoints before closing.
//
// -shards N partitions the store into N range shards with learned-CDF
// splits (see docs/SHARDING.md): queries prune to the shards their split-
// dimension predicate can touch, and GET /stats grows a per-shard block.
// A durable directory remembers its own partitioning — a sharded one reopens
// sharded whatever the flag says, and a flat one refuses the flag.
//
//	floodserver -addr :8080 -dataset sales -rows 1000000
//	floodserver -addr :8080 -dataset sales -rows 1000000 -shards 4
//	floodserver -addr :8080 -load orders.flood
//	floodserver -addr :8080 -dataset sales -rows 100000 -dir /var/lib/flood
//
// Endpoints: POST /query (reads, and the writes INSERT, DELETE and UPDATE),
// GET /schema, GET /stats, GET /healthz. SIGINT/SIGTERM triggers a graceful
// drain: the listener stops accepting, in-flight requests and gathered
// batches finish, and the store is checkpointed (durable) or closed
// (in-memory).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	flood "flood"
	"flood/datagen"
	"flood/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		datasetName = flag.String("dataset", "sales", "synthetic dataset to build when no -load/-dir store exists (sales, tpch, osm, perfmon)")
		rows        = flag.Int("rows", 200000, "synthetic dataset row count")
		seed        = flag.Int64("seed", 1, "dataset and layout-learning seed")
		loadPath    = flag.String("load", "", "serve a snapshot written by floodcli -save")
		dir         = flag.String("dir", "", "durable directory: open if it has a snapshot, else create from the built/loaded index; writes are WAL-acknowledged")
		shards      = flag.Int("shards", 0, "partition the store into N range shards with learned-CDF splits (0 = flat; incompatible with -load)")
		window      = flag.Duration("batch-window", 250*time.Microsecond, "micro-batch gather window")
		batchMax    = flag.Int("batch-max", 64, "max queries per execution batch")
		inflight    = flag.Int("max-inflight", 256, "admission-control in-flight bound")
		queueWait   = flag.Duration("queue-wait", 2*time.Millisecond, "max admission queue wait before shedding with 429 (0 sheds at once)")
		cacheSize   = flag.Int("cache", 1024, "result cache entries (0 = default, negative disables)")
		reqTimeout  = flag.Duration("request-timeout", 5*time.Second, "per-request execution deadline")
		maxRows     = flag.Int("max-rows", 10000, "row cap for one SELECT response")
	)
	flag.Parse()

	cfg := &server.Config{
		BatchWindow:    *window,
		BatchMax:       *batchMax,
		MaxInFlight:    *inflight,
		QueueWait:      queueWaitConfig(*queueWait),
		CacheEntries:   *cacheSize,
		RequestTimeout: *reqTimeout,
		MaxResultRows:  *maxRows,
	}

	store, err := resolveStore(*datasetName, *rows, *seed, *loadPath, *dir, *shards)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(store, cfg)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("floodserver listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish, then
	// flush batches and checkpoint/close the store.
	log.Printf("shutting down: draining requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("store shutdown: %v", err)
	}
	log.Printf("shutdown complete")
}

// queueWaitConfig maps -queue-wait onto server.Config.QueueWait: the flag's
// 0 sheds at once, which the Config spells as a negative wait, since its
// zero stands for the default.
func queueWaitConfig(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

// resolveStore resolves the store precedence: whatever -dir already holds,
// then a store built from the snapshot or a synthetic dataset — sharded with
// -shards, durable (created in -dir) with -dir. A directory's own layout wins
// over the -shards flag: a sharded one reopens with the shards it has, a flat
// one cannot be repartitioned.
func resolveStore(datasetName string, rows int, seed int64, loadPath, dir string, shards int) (flood.Store, error) {
	if shards > 0 && loadPath != "" {
		return nil, errors.New("-shards cannot repartition a flat snapshot; use -dataset/-rows or a sharded -dir")
	}
	if dir != "" {
		t0 := time.Now()
		store, rep, err := flood.OpenStore(dir, nil)
		if err == nil {
			return opened(store, rep, dir, shards, time.Since(t0))
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("opening %s: %w", dir, err)
		}
	}
	t0 := time.Now()
	if shards > 0 {
		ds, queries, err := syntheticWorkload(datasetName, rows, seed)
		if err != nil {
			return nil, err
		}
		opts := &flood.ShardedOptions{Shards: shards, Build: &flood.Options{Seed: seed + 2}}
		var sh *flood.ShardedIndex
		if dir != "" {
			sh, err = flood.CreateShardedDurable(dir, ds.Table, queries, opts, nil)
		} else {
			sh, err = flood.NewSharded(ds.Table, queries, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("building sharded store: %w", err)
		}
		log.Printf("built sharded %s (%d rows): %d shards split on %s in %v",
			datasetName, sh.NumRows(), sh.NumShards(), ds.Table.Name(sh.SplitDim()), time.Since(t0).Round(time.Millisecond))
		return sh, nil
	}
	base, err := buildBase(datasetName, rows, seed, loadPath)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return flood.NewAdaptiveIndex(base, nil), nil
	}
	d, err := flood.CreateDurable(dir, base, nil)
	if err != nil {
		return nil, fmt.Errorf("creating durable dir %s: %w", dir, err)
	}
	log.Printf("created durable store %s", dir)
	return d, nil
}

// opened reports what a directory held and holds -shards against it.
func opened(store flood.Store, rep flood.ShardedRecoveryReport, dir string, shards int, took time.Duration) (flood.Store, error) {
	for i, sr := range rep.Shards {
		for _, w := range sr.Warnings {
			log.Printf("recovery shard %d: %s", i, w)
		}
	}
	if _, sharded := store.(*flood.ShardedIndex); shards > 0 && !sharded {
		store.Close()
		return nil, fmt.Errorf("-shards %d: %s already holds a flat store; point -dir at an empty directory", shards, dir)
	} else if shards > 0 && store.NumShards() != shards {
		log.Printf("-shards %d ignored: %s already holds %d shards", shards, dir, store.NumShards())
	}
	log.Printf("opened store %s: %d shards, %d snapshot rows + %d replayed records in %v",
		dir, store.NumShards(), rep.SnapshotRows, rep.ReplayedRows, took.Round(time.Millisecond))
	return store, nil
}

// syntheticWorkload materializes the named dataset and its standard training
// workload.
func syntheticWorkload(datasetName string, rows int, seed int64) (*datagen.Dataset, []flood.Query, error) {
	ds := datagen.ByName(datasetName, rows, seed)
	if ds == nil {
		return nil, nil, errors.New("unknown -dataset " + datasetName + " (try: sales, tpch, osm, perfmon)")
	}
	return ds, datagen.StandardWorkload(ds, 40, seed+1), nil
}

// buildBase loads the snapshot or builds a learned index over a synthetic
// dataset's standard workload.
func buildBase(datasetName string, rows int, seed int64, loadPath string) (*flood.Flood, error) {
	t0 := time.Now()
	if loadPath != "" {
		idx, rep, err := flood.LoadFile(loadPath)
		if err != nil {
			return nil, fmt.Errorf("loading snapshot %s: %w", loadPath, err)
		}
		for _, w := range rep.Warnings {
			log.Printf("recovery: %s", w)
		}
		log.Printf("loaded snapshot %s: %d rows, layout %s in %v",
			loadPath, idx.Table().NumRows(), idx.Layout(), time.Since(t0).Round(time.Millisecond))
		return idx, nil
	}
	ds, queries, err := syntheticWorkload(datasetName, rows, seed)
	if err != nil {
		return nil, err
	}
	idx, err := flood.Build(ds.Table, queries, &flood.Options{Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	log.Printf("built %s (%d rows): layout %s in %v",
		datasetName, ds.Table.NumRows(), idx.Layout(), time.Since(t0).Round(time.Millisecond))
	return idx, nil
}
