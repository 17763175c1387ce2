package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flood "flood"
)

func TestResultCacheBasics(t *testing.T) {
	c := newResultCache(2)
	c.put("a", cacheEntry{ver: 1, value: 10, matched: 3})
	if e, ok := c.get("a", 1); !ok || e.value != 10 || e.matched != 3 {
		t.Fatalf("get(a,1) = %+v %v", e, ok)
	}
	// A version bump makes the entry invisible and evicts it.
	if _, ok := c.get("a", 2); ok {
		t.Fatal("stale entry served across version bump")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not lazily evicted; len = %d", c.len())
	}
	// Capacity bound: inserting past max evicts, never grows.
	c.put("a", cacheEntry{ver: 2})
	c.put("b", cacheEntry{ver: 2})
	c.put("c", cacheEntry{ver: 2})
	if c.len() != 2 {
		t.Fatalf("cache grew past max: len = %d", c.len())
	}
	// A newer-version entry is not clobbered by a slow writer's older one.
	c.put("k", cacheEntry{ver: 9, value: 99})
	c.put("k", cacheEntry{ver: 5, value: 55})
	if e, ok := c.get("k", 9); !ok || e.value != 99 {
		t.Fatalf("older write clobbered newer entry: %+v %v", e, ok)
	}
	// nil cache (disabled) is inert.
	var nilCache *resultCache
	nilCache.put("x", cacheEntry{})
	if _, ok := nilCache.get("x", 0); ok || nilCache.len() != 0 {
		t.Fatal("nil cache not inert")
	}
}

// TestServerCacheNeverStale is the satellite property test: across a random
// interleaving of queries, inserts, deletes, updates, and forced relearns,
// a cached response is NEVER served across an epoch bump — every response
// (cached or not) must equal a fresh count computed directly against the
// index at that moment.
func TestServerCacheNeverStale(t *testing.T) {
	srv, hs := typedFixture(t, &Config{BatchWindow: 1})
	rng := rand.New(rand.NewSource(331))
	url := hs.URL

	sqls := []string{
		"SELECT COUNT(*) FROM t WHERE city = 'boston'",
		"SELECT COUNT(*) FROM t WHERE dist < 100",
		"SELECT COUNT(*) FROM t",
	}
	fresh := func(sql string) int64 {
		st, err := srv.parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qs, agg := st.Queries()
		if _, err := flood.ExecuteOrContext(srv.baseCtx, srv.store, qs, agg); err != nil {
			t.Fatal(err)
		}
		return agg.Result()
	}
	hits := 0
	for i := 0; i < 300; i++ {
		switch op := rng.Intn(10); {
		case op < 6: // query, twice so the second can hit the cache
			sql := sqls[rng.Intn(len(sqls))]
			want := fresh(sql)
			for j := 0; j < 2; j++ {
				r, code := postQuery(t, url, sql)
				if code != http.StatusOK {
					t.Fatalf("op %d: status %d", i, code)
				}
				if r.Value != want {
					t.Fatalf("op %d: %q = %d (cached=%v), index says %d — stale cache served",
						i, sql, r.Value, r.Cached, want)
				}
				if r.Cached {
					hits++
				}
			}
		case op < 7:
			postQuery(t, url, fmt.Sprintf("INSERT INTO t VALUES ('boston', 1.25, %d)", rng.Intn(300)))
		case op < 8:
			postQuery(t, url, fmt.Sprintf("DELETE FROM t WHERE dist = %d", rng.Intn(300)))
		case op < 9:
			postQuery(t, url, fmt.Sprintf("UPDATE t SET dist = %d WHERE dist = %d", rng.Intn(300), rng.Intn(300)))
		default: // relearn: the epoch fold must invalidate without a mutation
			if srv.store.Shard(0).TriggerRelearn() {
				srv.store.Shard(0).Wait()
			}
		}
	}
	if hits == 0 {
		t.Fatal("property test never exercised a cache hit")
	}
	if srv.Stats().CacheHits == 0 {
		t.Fatal("server counted no cache hits")
	}
}

// TestServerConcurrentCacheMutateRelearn is the satellite -race test:
// concurrent clients reading through the cache while writers mutate and a
// third goroutine forces relearns. Correctness here is "no race, no error,
// and every response is internally consistent"; staleness is covered by
// the sequential property test above.
func TestServerConcurrentCacheMutateRelearn(t *testing.T) {
	srv, hs := typedFixture(t, &Config{BatchWindow: 1})
	url := hs.URL
	var wg sync.WaitGroup
	var failures atomic.Int64

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + c)))
			for i := 0; i < 60; i++ {
				sql := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE dist < %d", rng.Intn(300))
				if _, code := postQuery(t, url, sql); code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(c)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < 30; i++ {
				var sql string
				if rng.Intn(2) == 0 {
					sql = fmt.Sprintf("INSERT INTO t VALUES ('nyc', 1.25, %d)", rng.Intn(300))
				} else {
					sql = fmt.Sprintf("DELETE FROM t WHERE dist = %d", rng.Intn(300))
				}
				if _, code := postQuery(t, url, sql); code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				srv.store.Shard(0).TriggerRelearn()
			}
		}
	}()
	// Wait for readers/writers by polling the request counter, then stop
	// the relearn loop and join everything.
	for srv.requests.Load() < 4*60+2*30 {
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed under concurrency", failures.Load())
	}
	srv.store.Wait()
}

// failSecondInsert is a store whose second Insert fails, as a WAL append or
// sync error would after the first row of a statement was applied.
type failSecondInsert struct {
	flood.Store
	inserts int
}

func (f *failSecondInsert) Insert(row []int64) error {
	if f.inserts++; f.inserts == 2 {
		return errors.New("injected: log append failed")
	}
	return f.Store.Insert(row)
}

// TestServerCacheAfterPartialMutation pins the cache version to what the
// store holds, not to whether the request succeeded: a two-row INSERT whose
// second row fails has changed the table, so the COUNT(*) cached before it
// must not be served after it.
func TestServerCacheAfterPartialMutation(t *testing.T) {
	inner, _ := typedFixture(t, nil)
	// Both servers close the one index; a store's second Close is a no-op.
	srv := New(&failSecondInsert{Store: inner.store}, &Config{BatchWindow: 1})
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); srv.Close() }()

	const count = "SELECT COUNT(*) FROM t"
	before, _ := postQuery(t, hs.URL, count)
	if again, _ := postQuery(t, hs.URL, count); !again.Cached || again.Value != before.Value {
		t.Fatalf("second COUNT(*) = %d (cached=%v), first %d: the cache is not in play", again.Value, again.Cached, before.Value)
	}
	if _, code := postQuery(t, hs.URL, "INSERT INTO t VALUES ('boston', 1.25, 3), ('nyc', 2.5, 4)"); code != http.StatusBadRequest {
		t.Fatalf("INSERT whose second row fails: status %d, want 400", code)
	}
	after, _ := postQuery(t, hs.URL, count)
	if after.Cached || after.Value != before.Value+1 {
		t.Fatalf("COUNT(*) after a half-applied INSERT = %d (cached=%v), the table holds %d rows", after.Value, after.Cached, before.Value+1)
	}
	if st := srv.Stats(); st.InsertedRows != 1 || st.Errors != 1 {
		t.Errorf("stats count %d inserted rows and %d errors, want 1 and 1", st.InsertedRows, st.Errors)
	}
}
