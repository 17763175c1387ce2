package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	flood "flood"
	"flood/internal/dataset"
	"flood/internal/workload"
)

// rawFixture builds a small adaptive index over the raw sales dataset (no
// typed schema) and mounts a server over it.
func rawFixture(t *testing.T, cfg *Config) (*Server, *httptest.Server) {
	t.Helper()
	ds := dataset.Sales(4000, 11)
	queries := workload.Standard(ds, 20, 12)
	idx, err := flood.Build(ds.Table, queries, &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a := flood.NewAdaptiveIndex(idx, &flood.AdaptiveConfig{
		DriftFactor: 1e9,
		Build:       &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 14},
	})
	return serve(t, a, cfg)
}

// cityTable builds the typed city/fare/dist table the typed fixtures serve,
// and the two training queries their layouts are learned from.
func cityTable(t *testing.T) (*flood.Table, *flood.Schema, []flood.Query) {
	t.Helper()
	cities := []string{"austin", "boston", "chicago", "nyc", "seattle"}
	n := 2000
	var city []string
	var fare []float64
	var dist []int64
	for i := 0; i < n; i++ {
		city = append(city, cities[i%len(cities)])
		fare = append(fare, float64(i%5000)/100)
		dist = append(dist, int64(i%300))
	}
	s := flood.NewSchema().String("city").Float64("fare", 2).Int64("dist")
	b := s.NewTableBuilder()
	if err := b.SetStringColumn("city", city); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFloat64Column("fare", fare); err != nil {
		t.Fatal(err)
	}
	if err := b.SetInt64Column("dist", dist); err != nil {
		t.Fatal(err)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	queries := []flood.Query{
		flood.NewQuery(3).WithRange(2, 10, 100),
		flood.NewQuery(3).WithRange(1, 100, 2000),
	}
	return tbl, s, queries
}

// typedIndex learns a flat index over cityTable.
func typedIndex(t *testing.T) *flood.Flood {
	t.Helper()
	tbl, s, queries := cityTable(t)
	idx, err := flood.Build(tbl, queries, &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 17, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// typedConfig keeps the typed stores from relearning on their own.
var typedConfig = &flood.AdaptiveConfig{
	DriftFactor: 1e9,
	Build:       &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 18},
}

// shardedStore partitions cityTable into 4 shards split on the dist column.
func shardedStore(t *testing.T) *flood.ShardedIndex {
	t.Helper()
	tbl, s, queries := cityTable(t)
	sh, err := flood.NewSharded(tbl, queries, &flood.ShardedOptions{
		Shards:   4,
		Dim:      2, // dist
		Build:    &flood.Options{CalibrationLayouts: 3, GDSteps: 5, Seed: 19, Schema: s},
		Adaptive: &flood.AdaptiveConfig{DriftFactor: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// serve mounts a server over store, both closed when the test ends.
func serve(t *testing.T, store flood.Store, cfg *Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(store, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

// typedFixture serves a flat adaptive index over cityTable, so projections
// and typed literals run through the server.
func typedFixture(t *testing.T, cfg *Config) (*Server, *httptest.Server) {
	t.Helper()
	return serve(t, flood.NewAdaptiveIndex(typedIndex(t), typedConfig), cfg)
}

// shardedFixture serves the 4-shard store, exercising the fan-out store path
// end to end.
func shardedFixture(t *testing.T, cfg *Config) (*Server, *httptest.Server, *flood.ShardedIndex) {
	t.Helper()
	sh := shardedStore(t)
	srv, hs := serve(t, sh, cfg)
	return srv, hs, sh
}

func postQuery(t *testing.T, url, sql string) (QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestServerAggSelectMutate(t *testing.T) {
	srv, hs := typedFixture(t, nil)
	url := hs.URL

	// Aggregate with typed decode: SUM over the scaled fare column returns
	// the scaled integer in Value and the decoded float in Typed.
	r, code := postQuery(t, url, "SELECT COUNT(*) FROM t WHERE city = 'boston'")
	if code != http.StatusOK || r.Kind != "agg" || r.Value != 400 {
		t.Fatalf("COUNT boston = %+v (status %d), want 400", r, code)
	}
	r, _ = postQuery(t, url, "SELECT MIN(fare) FROM t WHERE dist BETWEEN 0 AND 10")
	if f, ok := r.Typed.(float64); !ok || f < 0 {
		t.Fatalf("MIN(fare).Typed = %#v, want decoded float", r.Typed)
	}

	// Projection with a LIMIT.
	r, code = postQuery(t, url, "SELECT city, fare FROM t WHERE dist < 50 LIMIT 7")
	if code != http.StatusOK || r.Kind != "rows" || len(r.Rows) != 7 || len(r.Columns) != 2 {
		t.Fatalf("SELECT rows = %+v (status %d), want 7 rows x 2 cols", r, code)
	}
	if _, ok := r.Rows[0][0].(string); !ok {
		t.Fatalf("projected city value = %#v, want string", r.Rows[0][0])
	}

	// SQL INSERT, then DELETE, through /query; counts must track.
	r, code = postQuery(t, url, "INSERT INTO t VALUES ('boston', 1.25, 299)")
	if code != http.StatusOK || r.Kind != "exec" || r.Affected != 1 {
		t.Fatalf("INSERT = %+v (status %d)", r, code)
	}
	r, _ = postQuery(t, url, "SELECT COUNT(*) FROM t WHERE city = 'boston'")
	if r.Value != 401 {
		t.Fatalf("COUNT after INSERT = %d, want 401", r.Value)
	}
	r, code = postQuery(t, url, "DELETE FROM t WHERE city = 'boston' AND dist = 299")
	if code != http.StatusOK || r.Affected < 1 {
		t.Fatalf("DELETE = %+v (status %d)", r, code)
	}
	r, _ = postQuery(t, url, "SELECT COUNT(*) FROM t WHERE city = 'boston'")
	if r.Value != 400 {
		t.Fatalf("COUNT after DELETE = %d, want 400", r.Value)
	}

	// Parse errors surface as 400 with the positioned message.
	if _, code = postQuery(t, url, "SELECT FROG(*) FROM t"); code != http.StatusBadRequest {
		t.Fatalf("bad sql status = %d, want 400", code)
	}

	st := srv.Stats()
	if st.AggQueries < 4 || st.Selects != 1 || st.Mutations != 2 {
		t.Fatalf("stats dispatch counts = %+v", st)
	}
}

// TestServerRefusesDNFBlowup sends predicates whose disjunctive normal form
// passes floodsql.MaxDisjuncts — sixteen ANDed two-way ORs (65,536
// rectangles) and a 10,000-value IN list — and one within it whose disjoint
// decomposition passes floodsql.MaxPieces — 512 slabs on each of two columns,
// ~260,000 pieces — and expects each to be a 400 that names the bound, with a
// bounded allocation, while the server keeps answering.
func TestServerRefusesDNFBlowup(t *testing.T) {
	_, hs := typedFixture(t, nil)
	var factors, values, slabs []string
	for i := 0; i < 16; i++ {
		factors = append(factors, fmt.Sprintf("(dist > %d OR fare > %d)", i, i))
	}
	for i := 0; i < 10_000; i++ {
		values = append(values, fmt.Sprint(i))
	}
	for i := 0; i < 512; i++ {
		slabs = append(slabs, fmt.Sprintf("dist = %d OR fare = %d", i, i))
	}
	for where, bound := range map[string]string{
		strings.Join(factors, " AND "):                 "MaxDisjuncts",
		"dist IN (" + strings.Join(values, ", ") + ")": "MaxDisjuncts",
		strings.Join(slabs, " OR "):                    "MaxPieces",
	} {
		body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM t WHERE " + where})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(e), bound) {
			t.Fatalf("%.50s...: status %d, body %v; want 400 naming %s", where, resp.StatusCode, e, bound)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%.50s...: refusing it allocated %d bytes, want at most 16 MiB", where, got)
		}
	}
	if r, code := postQuery(t, hs.URL, "SELECT COUNT(*) FROM t WHERE city = 'boston'"); code != http.StatusOK || r.Value != 400 {
		t.Fatalf("COUNT after the refusals = %+v (status %d), want 400", r, code)
	}
}

func TestServerSelectRowCap(t *testing.T) {
	_, hs := typedFixture(t, &Config{MaxResultRows: 5})
	r, code := postQuery(t, hs.URL, "SELECT dist FROM t")
	if code != http.StatusOK || len(r.Rows) != 5 || !r.Truncated {
		t.Fatalf("capped SELECT = %d rows truncated=%v (status %d), want 5/true", len(r.Rows), r.Truncated, code)
	}
	// An explicit LIMIT under the cap is not truncation.
	r, _ = postQuery(t, hs.URL, "SELECT dist FROM t LIMIT 3")
	if len(r.Rows) != 3 || r.Truncated {
		t.Fatalf("LIMIT 3 = %d rows truncated=%v, want 3/false", len(r.Rows), r.Truncated)
	}
}

// TestServerInsertEndpoint pins the write path through /query: a
// multi-row SQL INSERT answers with its row count, and a row of the wrong
// width or naming a string the column's dictionary does not hold answers 400.
func TestServerInsertEndpoint(t *testing.T) {
	srv, hs := typedFixture(t, nil)
	r, code := postQuery(t, hs.URL, "INSERT INTO t VALUES ('nyc', 12.5, 42), ('austin', 0.75, 7)")
	if code != http.StatusOK || r.Kind != "exec" || r.Affected != 2 {
		t.Fatalf("INSERT = %+v (status %d), want 2 rows", r, code)
	}
	r, _ = postQuery(t, hs.URL, "SELECT COUNT(*) FROM t WHERE city = 'nyc' AND dist = 42")
	if r.Value != 1 {
		t.Fatalf("COUNT inserted row = %d, want 1", r.Value)
	}
	for what, sql := range map[string]string{
		"bad-arity":    "INSERT INTO t VALUES ('nyc', 1.25)",
		"unknown-city": "INSERT INTO t VALUES ('gotham', 1.25, 3)",
	} {
		if _, code := postQuery(t, hs.URL, sql); code != http.StatusBadRequest {
			t.Fatalf("%s insert status = %d, want 400", what, code)
		}
	}
	if srv.Stats().InsertedRows != 2 {
		t.Fatalf("InsertedRows = %d, want 2", srv.Stats().InsertedRows)
	}
}

func TestServerSchemaEndpoint(t *testing.T) {
	_, hs := typedFixture(t, nil)
	resp, err := http.Get(hs.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr schemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Typed || sr.Rows != 2000 || len(sr.Columns) != 3 {
		t.Fatalf("schema = %+v", sr)
	}
	if sr.Columns[2].Name != "dist" || sr.Columns[2].Kind != "int64" ||
		sr.Columns[2].Min != 0 || sr.Columns[2].Max != 299 {
		t.Fatalf("dist column info = %+v, want [0,299] int64", sr.Columns[2])
	}
}

// TestServerSharded runs the whole serving surface — aggregates,
// projections, SQL mutations, /schema, /stats — against a 4-shard
// store, pinning that the Store generalization lost nothing and that the
// per-shard stats block is populated.
func TestServerSharded(t *testing.T) {
	srv, hs, sh := shardedFixture(t, nil)
	url := hs.URL

	// Fan-out aggregate (city isn't the split dim, so every shard scans).
	r, code := postQuery(t, url, "SELECT COUNT(*) FROM t WHERE city = 'boston'")
	if code != http.StatusOK || r.Value != 400 {
		t.Fatalf("COUNT boston = %+v (status %d), want 400", r, code)
	}
	// Pruned aggregate: dist < 50 lands inside the first shard's range.
	r, _ = postQuery(t, url, "SELECT COUNT(*) FROM t WHERE dist < 50")
	if r.Value != 350 {
		t.Fatalf("COUNT dist<50 = %d, want 350", r.Value)
	}
	// Projection with LIMIT through the shared fan-out budget.
	r, code = postQuery(t, url, "SELECT city, fare FROM t WHERE dist < 50 LIMIT 7")
	if code != http.StatusOK || r.Kind != "rows" || len(r.Rows) != 7 {
		t.Fatalf("SELECT rows = %+v (status %d), want 7 rows", r, code)
	}
	if _, ok := r.Rows[0][0].(string); !ok {
		t.Fatalf("projected city value = %#v, want string", r.Rows[0][0])
	}

	// SQL INSERT routes by the split point; DELETE fans out.
	r, code = postQuery(t, url, "INSERT INTO t VALUES ('boston', 1.25, 299)")
	if code != http.StatusOK || r.Affected != 1 {
		t.Fatalf("INSERT = %+v (status %d)", r, code)
	}
	r, _ = postQuery(t, url, "SELECT COUNT(*) FROM t WHERE city = 'boston'")
	if r.Value != 401 {
		t.Fatalf("COUNT after INSERT = %d, want 401", r.Value)
	}
	r, code = postQuery(t, url, "DELETE FROM t WHERE city = 'boston' AND dist = 299")
	if code != http.StatusOK || r.Affected < 1 {
		t.Fatalf("DELETE = %+v (status %d)", r, code)
	}

	// A multi-row INSERT routes each row by the split point.
	r, code = postQuery(t, url, "INSERT INTO t VALUES ('nyc', 12.5, 42), ('nyc', 12.5, 250)")
	if code != http.StatusOK || r.Affected != 2 {
		t.Fatalf("multi-row INSERT = %+v (status %d)", r, code)
	}

	// /schema folds row counts and column bounds across shards.
	resp, err := http.Get(url + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	var sr schemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sr.Typed || sr.Rows < 2000 || len(sr.Columns) != 3 {
		t.Fatalf("schema = %+v", sr)
	}
	if sr.Columns[2].Min != 0 || sr.Columns[2].Max != 299 {
		t.Fatalf("dist bounds = [%d,%d], want [0,299] folded across shards", sr.Columns[2].Min, sr.Columns[2].Max)
	}

	// /stats carries the per-shard block with routed query counts.
	st := srv.Stats()
	if len(st.Shards) != sh.NumShards() {
		t.Fatalf("stats shards = %d entries, want %d", len(st.Shards), sh.NumShards())
	}
	var rows, queries int64
	for i, si := range st.Shards {
		if si.Shard != i {
			t.Fatalf("shard block out of order: %+v", si)
		}
		rows += int64(si.Rows)
		queries += si.Queries
	}
	if int(rows) != sh.LiveRows() || rows < 2000 {
		t.Fatalf("per-shard rows sum = %d, want %d", rows, sh.LiveRows())
	}
	if queries == 0 {
		t.Fatal("no per-shard queries recorded")
	}
	if st.BaseRows+st.PendingRows != sh.NumRows() {
		t.Fatalf("BaseRows %d + PendingRows %d, want the store's %d physical rows", st.BaseRows, st.PendingRows, sh.NumRows())
	}
}

// TestServerShardedCache pins that the epoch-keyed result cache stays
// correct over a sharded store: a mutation in one shard bumps the summed
// epoch version, so no stale aggregate is ever served.
func TestServerShardedCache(t *testing.T) {
	srv, hs, _ := shardedFixture(t, &Config{CacheEntries: 64})
	const q = "SELECT COUNT(*) FROM t WHERE dist < 50"
	r, _ := postQuery(t, hs.URL, q)
	first := r.Value
	r, _ = postQuery(t, hs.URL, q)
	if !r.Cached || r.Value != first {
		t.Fatalf("repeat query = %+v, want cached %d", r, first)
	}
	if _, code := postQuery(t, hs.URL, "INSERT INTO t VALUES ('nyc', 2.5, 10)"); code != http.StatusOK {
		t.Fatalf("insert status = %d", code)
	}
	r, _ = postQuery(t, hs.URL, q)
	if r.Cached || r.Value != first+1 {
		t.Fatalf("post-insert query = %+v, want uncached %d", r, first+1)
	}
	if srv.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", srv.Stats().CacheHits)
	}
}

// TestServerBatchMultiplex is the acceptance check that concurrent clients
// are multiplexed onto ExecuteBatchContext: with a generous gather window,
// a burst of distinct aggregates must produce batches with more than one
// member, visible both in server stats and per-response batch_size.
func TestServerBatchMultiplex(t *testing.T) {
	srv, hs := rawFixture(t, &Config{BatchWindow: 20 * time.Millisecond, CacheEntries: -1})
	const clients = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxSeen := 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct predicates so no request is a cache hit.
			r, code := postQuery(t, hs.URL, fmt.Sprintf(
				"SELECT COUNT(*) FROM sales WHERE quantity >= %d", i%9))
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			mu.Lock()
			if r.BatchSize > maxSeen {
				maxSeen = r.BatchSize
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.MaxBatch < 2 || st.MultiBatches == 0 {
		t.Fatalf("no multiplexing observed: stats = %+v", st)
	}
	if maxSeen < 2 {
		t.Fatalf("no response reported batch_size > 1 (max %d)", maxSeen)
	}
	if st.BatchedQueries != int64(clients) {
		t.Fatalf("batched queries = %d, want %d", st.BatchedQueries, clients)
	}
}

// TestServerAdmissionShed pins the shedding contract: with the in-flight
// semaphore full and no queue wait allowed, a request is refused with 429
// and counted, without touching the index.
func TestServerAdmissionShed(t *testing.T) {
	srv, hs := rawFixture(t, &Config{MaxInFlight: 1, QueueWait: -1})
	srv.sem <- struct{}{} // occupy the only slot
	_, code := postQuery(t, hs.URL, "SELECT COUNT(*) FROM sales")
	if code != http.StatusTooManyRequests {
		t.Fatalf("status with full semaphore = %d, want 429", code)
	}
	st := srv.Stats()
	if st.Shed != 1 || st.AggQueries != 0 {
		t.Fatalf("shed accounting = %+v, want Shed=1 and no execution", st)
	}
	<-srv.sem
	if _, code = postQuery(t, hs.URL, "SELECT COUNT(*) FROM sales"); code != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", code)
	}
}

// TestServerAdmissionQueueWait covers the queue path: a held slot released
// shortly after a request arrives lets the waiter through, and the wait is
// accounted.
func TestServerAdmissionQueueWait(t *testing.T) {
	srv, hs := rawFixture(t, &Config{MaxInFlight: 1, QueueWait: time.Second})
	srv.sem <- struct{}{}
	go func() {
		time.Sleep(20 * time.Millisecond)
		<-srv.sem
	}()
	r, code := postQuery(t, hs.URL, "SELECT COUNT(*) FROM sales")
	if code != http.StatusOK {
		t.Fatalf("queued request status = %d, want 200", code)
	}
	if r.QueueMicros <= 0 {
		t.Fatalf("queued request reported no queue wait: %+v", r)
	}
	st := srv.Stats()
	if st.QueuedRequests != 1 || st.QueueWaitMicros <= 0 {
		t.Fatalf("queue accounting = %+v", st)
	}
}

// TestServerRequestDeadline pins the 504 path: a deadline that expires
// before the batch fires answers ErrCanceled without scanning.
func TestServerRequestDeadline(t *testing.T) {
	// A gather window much longer than the request timeout guarantees the
	// deadline passes while the job waits in the collector.
	_, hs := rawFixture(t, &Config{BatchWindow: 300 * time.Millisecond, RequestTimeout: 20 * time.Millisecond})
	body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM sales", TimeoutMillis: 10})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline status = %d, want 504", resp.StatusCode)
	}
}

// TestServerDeadlineOnlyTightens pins timeout_ms against the server's
// RequestTimeout: a shorter one tightens the deadline, a longer one is
// capped, and one too large for a time.Duration is capped too rather than
// overflowing into a deadline already past.
func TestServerDeadlineOnlyTightens(t *testing.T) {
	s := &Server{cfg: (&Config{RequestTimeout: time.Second}).withDefaults()}
	for _, c := range []struct {
		millis int64
		want   time.Duration
	}{{0, time.Second}, {10, 10 * time.Millisecond}, {1000, time.Second}, {60000, time.Second},
		{1 << 62, time.Second}, {math.MaxInt64, time.Second}} {
		if got := time.Until(s.deadlineFor(c.millis)); got > c.want || got < c.want-100*time.Millisecond {
			t.Errorf("timeout_ms %d: deadline %v away, want %v", c.millis, got, c.want)
		}
	}
}

// TestServerQueueWaitZeroIsDefault pins what Config.QueueWait documents: zero
// is the default wait, and a negative wait is none at all
// (TestServerAdmissionShed drives it).
func TestServerQueueWaitZeroIsDefault(t *testing.T) {
	if got := (&Config{}).withDefaults().QueueWait; got != 2*time.Millisecond {
		t.Errorf("QueueWait 0 waits %v, want the 2ms default", got)
	}
	if got := (&Config{QueueWait: -1}).withDefaults().QueueWait; got != 0 {
		t.Errorf("QueueWait -1 waits %v, want none", got)
	}
}

// TestServerCloseRefusesRequests pins the shutdown barrier: after Close,
// requests get 503 and the underlying store is released exactly once.
func TestServerCloseRefusesRequests(t *testing.T) {
	srv, hs := rawFixture(t, nil)
	if _, code := postQuery(t, hs.URL, "SELECT COUNT(*) FROM sales"); code != http.StatusOK {
		t.Fatalf("pre-close status = %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, code := postQuery(t, hs.URL, "SELECT COUNT(*) FROM sales")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-close status = %d, want 503", code)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestServerInsertTimeTick pins what an INSERT number means on a time
// column: the column's physical tick, in the column's own unit. One instant
// spelled three ways stores one value — an RFC3339 string (encoded through the
// schema, as floodsql takes no string literal on a time column), a tick on a
// second-unit column, and a tick on a nanosecond-unit column — and reads back as the same RFC3339 string.
func TestServerInsertTimeTick(t *testing.T) {
	const instant = "2023-11-14T22:23:20Z"
	at, err := time.Parse(time.RFC3339, instant)
	if err != nil {
		t.Fatal(err)
	}
	for _, unit := range []time.Duration{time.Second, time.Nanosecond} {
		t.Run(unit.String(), func(t *testing.T) {
			s := flood.NewSchema().Int64("id").TimeUnit("ts", unit)
			b := s.NewTableBuilder()
			for i := 0; i < 1000; i++ {
				if err := b.AppendRow(int64(i), at.Add(time.Duration(i-5000)*time.Second)); err != nil {
					t.Fatal(err)
				}
			}
			tbl, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			idx, err := flood.BuildWithLayout(tbl, flood.Layout{GridDims: []int{0}, GridCols: []int{8}, SortDim: 1, Flatten: true}, &flood.Options{Schema: s})
			if err != nil {
				t.Fatal(err)
			}
			store := flood.NewAdaptiveIndex(idx, nil)
			_, hs := serve(t, store, nil)

			row, err := s.EncodeRow(int64(5000), at)
			if err == nil {
				err = store.Insert(row)
			}
			if err != nil {
				t.Fatal(err)
			}
			sql := fmt.Sprintf("INSERT INTO t VALUES (5001, %d)", at.UnixNano()/int64(unit))
			if r, code := postQuery(t, hs.URL, sql); code != http.StatusOK || r.Affected != 1 {
				t.Fatalf("INSERT = %+v (status %d)", r, code)
			}
			r, code := postQuery(t, hs.URL, "SELECT id, ts FROM t WHERE id BETWEEN 5000 AND 5001")
			if code != http.StatusOK || len(r.Rows) != 2 {
				t.Fatalf("SELECT = %+v (status %d), want 2 rows", r, code)
			}
			for _, row := range r.Rows {
				if row[1] != instant {
					t.Errorf("row %v reads back as %v, want %s", row[0], row[1], instant)
				}
			}
		})
	}
}

// TestServerBodyLimit pins the body cap on POST /query: one byte over
// maxBodyBytes is refused with 413, a body of exactly the cap is read, and so
// is the next ordinary request.
func TestServerBodyLimit(t *testing.T) {
	_, hs := typedFixture(t, nil)
	// Each body pads a valid document with blanks up to n bytes.
	pad := func(head, tail string) func(n int) string {
		return func(n int) string { return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail }
	}
	body := pad(`{"sql":"SELECT COUNT(*) FROM t`, `"}`)
	for _, c := range []struct{ n, want int }{{maxBodyBytes + 1, 413}, {maxBodyBytes, 200}, {64, 200}} {
		resp, err := http.Post(hs.URL+"/query", "application/json", strings.NewReader(body(c.n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("POST /query with a %d-byte body: status %d, want %d", c.n, resp.StatusCode, c.want)
		}
	}
}
