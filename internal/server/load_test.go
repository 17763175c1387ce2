package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flood "flood"
)

// send posts one statement through client and decodes the 200 it must get.
func send(client *http.Client, url, sql string) (QueryResponse, error) {
	var r QueryResponse
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("%q: status %d: %s", sql, resp.StatusCode, msg)
	}
	return r, json.NewDecoder(resp.Body).Decode(&r)
}

// loadStatements is the aggregate mix TestServerUnderLoad sends over the
// cityTable stores: a few hot statements the result cache keeps, and cold
// ones from four times as many shapes as the default cache holds.
func loadStatements() (hot, cold []string) {
	hot = []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*) FROM t WHERE city = 'boston'",
		"SELECT SUM(fare) FROM t WHERE dist < 100",
		"SELECT MIN(dist) FROM t WHERE fare BETWEEN 5.5 AND 12.25",
		"SELECT MAX(fare) FROM t WHERE city IN ('nyc', 'austin')",
		"SELECT COUNT(*) FROM t WHERE dist < 20 OR dist > 280",
	}
	aggs := []string{"COUNT(*)", "SUM(fare)", "MIN(fare)", "MAX(dist)"}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 4096; i++ {
		lo := rng.Intn(300)
		cold = append(cold, fmt.Sprintf("SELECT %s FROM t WHERE dist BETWEEN %d AND %d AND fare >= %d.%02d",
			aggs[i%len(aggs)], lo, lo+rng.Intn(60), rng.Intn(50), rng.Intn(100)))
	}
	return hot, cold
}

// TestServerUnderLoad keeps a real server busy over HTTP for
// SERVE_SMOKE_DURATION (default 1s; CI's serve-smoke job runs 10s), flat and
// 4-shard, with the default Config. Closed-loop callers send hot and cold
// aggregates; every answer must be a 200 carrying the value and matched count
// the store gives in process, and /stats must account for every aggregate.
func TestServerUnderLoad(t *testing.T) {
	duration := time.Second
	if v := os.Getenv("SERVE_SMOKE_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad SERVE_SMOKE_DURATION %q: %v", v, err)
		}
		duration = d
	}
	t.Run("flat", func(t *testing.T) {
		srv, hs := typedFixture(t, nil)
		runUnderLoad(t, srv, hs.URL, duration)
	})
	t.Run("sharded", func(t *testing.T) {
		srv, hs, _ := shardedFixture(t, nil)
		runUnderLoad(t, srv, hs.URL, duration)
	})
}

func runUnderLoad(t *testing.T, srv *Server, url string, duration time.Duration) {
	hot, cold := loadStatements()
	type answer struct{ value, matched int64 }
	want := map[string]answer{}
	for _, sql := range append(hot, cold...) {
		st, err := srv.parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		v, stats, err := st.Run(srv.store)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = answer{v, stats.Matched}
	}

	const callers = 8
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: callers}}
	defer client.CloseIdleConnections()
	var sent atomic.Int64
	var wg sync.WaitGroup
	end := time.Now().Add(duration)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + c)))
			for time.Now().Before(end) {
				sql := cold[rng.Intn(len(cold))]
				if rng.Intn(2) == 0 {
					sql = hot[rng.Intn(len(hot))]
				}
				sent.Add(1)
				r, err := send(client, url, sql)
				if err != nil {
					t.Error(err)
					return
				}
				if got := (answer{r.Value, r.Matched}); got != want[sql] {
					t.Errorf("%q served value %d matched %d (cached=%v), the store gives %d and %d",
						sql, got.value, got.matched, r.Cached, want[sql].value, want[sql].matched)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := srv.Stats()
	if st.AggQueries != sent.Load() {
		t.Errorf("/stats counts %d aggregates, %d were sent", st.AggQueries, sent.Load())
	}
	if st.CacheHits == 0 || st.CacheHits+st.CacheMisses != st.AggQueries {
		t.Errorf("cache hits %d + misses %d, want > 0 hits and %d in all", st.CacheHits, st.CacheMisses, st.AggQueries)
	}
	var routed int64
	for _, si := range st.Shards {
		routed += si.Queries
	}
	if n := srv.store.NumShards(); n > 1 && (len(st.Shards) != n || routed == 0) {
		t.Errorf("sharded /stats: %d shard entries for %d shards, %d routed queries", len(st.Shards), n, routed)
	} else if n == 1 && len(st.Shards) != 0 {
		t.Errorf("flat /stats published a shard block: %+v", st.Shards)
	}
	t.Logf("%d aggregates in %v: %d cache hits, %d batches of %.2f on average",
		st.AggQueries, duration, st.CacheHits, st.Batches, st.AvgBatch)
}

// TestServerCloseLeaksNoGoroutine serves a concurrent burst of aggregates,
// SELECTs and INSERTs from a flat in-memory, a durable and a 4-shard store,
// then closes the listener, the client's idle connections and the server:
// the goroutine count, and on Linux the open descriptor count, must come back
// to their baselines within a second. The baselines are taken after one full
// cycle, so the engine's worker pool, started once per process, is already in
// them.
func TestServerCloseLeaksNoGoroutine(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) flood.Store
	}{
		{"flat", func(t *testing.T) flood.Store { return flood.NewAdaptiveIndex(typedIndex(t), typedConfig) }},
		{"durable", func(t *testing.T) flood.Store {
			d, err := flood.CreateDurable(t.TempDir(), typedIndex(t), &flood.DurableOptions{Adaptive: typedConfig})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"sharded", func(t *testing.T) flood.Store { return shardedStore(t) }},
	}
	// settle polls count for up to a second until it reads at most want.
	settle := func(count func() int, want int) int {
		n := count()
		for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = count() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	burstAndClose(t, stores[0].open(t))
	// The floor a second after the first cycle, once earlier tests' HTTP
	// connections have wound down too.
	base := settle(runtime.NumGoroutine, 0)
	baseFDs := openFDs()
	for _, tc := range stores {
		burstAndClose(t, tc.open(t))
		if n := settle(runtime.NumGoroutine, base); n > base {
			var stacks strings.Builder
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%s: %d goroutines a second after Close, %d before the cycle:\n%s", tc.name, n, base, stacks.String())
		}
		if n := settle(openFDs, baseFDs); n > baseFDs {
			t.Fatalf("%s: %d open descriptors a second after Close, %d before the cycle", tc.name, n, baseFDs)
		}
	}
}

// openFDs counts the process's open file descriptors; it reads 0 where
// /proc/self/fd does not exist, which makes the descriptor check a no-op.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// burstAndClose serves store, sends it a concurrent burst of aggregates,
// SELECTs and INSERTs, and shuts down in floodserver's order: listener,
// client connections, server.
func burstAndClose(t *testing.T, store flood.Store) {
	srv := New(store, nil)
	hs := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	sqls := []string{
		"SELECT COUNT(*) FROM t WHERE dist < 100",
		"SELECT city, fare FROM t WHERE dist BETWEEN 10 AND 20 LIMIT 5",
		"INSERT INTO t VALUES ('nyc', 2.5, 10)",
		"SELECT SUM(fare) FROM t WHERE city = 'boston' OR dist > 250",
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := send(client, hs.URL, sqls[(c+i)%len(sqls)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	hs.Close()
	client.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
