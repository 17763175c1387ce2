// Package server is flood's network serving tier: an HTTP/JSON front end
// that speaks floodsql against a flood.Store — flat or sharded, in memory or
// durable — built for many concurrent clients.
//
// Three mechanisms turn concurrent request traffic into the index's
// preferred execution shape:
//
//   - Micro-batching: single-rectangle aggregate queries from concurrent
//     handlers are gathered for a small window (or until a batch fills) and
//     executed as ONE ExecuteBatchContext call, giving inter-query
//     parallelism over the worker pool while each member keeps its
//     zero-allocation sequential scan.
//   - Admission control: a bounded in-flight semaphore with a short queue
//     wait; requests that cannot be admitted in time are shed fast with
//     HTTP 429 instead of piling onto the index, and queue wait is
//     accounted in the server stats.
//   - Result caching: aggregate results for hot query shapes are memoized
//     under an epoch version that every mutation and every adaptive
//     relearn/merge swap advances, so a cached response is never served
//     across a state change.
//
// Every request runs under a deadline (the server's request timeout,
// tightened per request via timeout_ms) riding the context-aware execution
// API: queries over deadline stop scanning cooperatively and return 504.
//
// Endpoints: POST /query (floodsql: aggregates, projections, and the
// mutations INSERT, DELETE and UPDATE), GET /schema (column names, kinds and
// value bounds), GET /stats (serving counters), GET /healthz. A request body
// over maxBodyBytes is refused with 413.
// See docs/SERVING.md for the full contract.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flood "flood"
	"flood/floodsql"
	"flood/internal/colstore"
)

// maxBodyBytes caps a POST body, so one request cannot make the server buffer
// an arbitrarily large JSON document; past it the answer is 413.
const maxBodyBytes = 8 << 20

// Config tunes the serving tier. The zero value (or nil) picks defaults
// sized for a small multi-core box; every knob is independent.
type Config struct {
	// BatchWindow is how long the collector holds an aggregate query open
	// for companions before executing the batch (default 250µs). Smaller
	// trades batching efficiency for latency.
	BatchWindow time.Duration
	// BatchMax caps one batch; a full batch executes immediately without
	// waiting out the window (default 64).
	BatchMax int
	// MaxInFlight bounds concurrently admitted requests (default 256).
	MaxInFlight int
	// QueueWait is how long an arriving request may wait for an admission
	// slot before being shed with 429 (zero means the default, 2ms). A
	// negative wait sheds immediately when the semaphore is full.
	QueueWait time.Duration
	// CacheEntries bounds the aggregate result cache (default 1024;
	// negative disables caching).
	CacheEntries int
	// RequestTimeout is the default per-request execution deadline
	// (default 5s). A request's timeout_ms can tighten it, never extend.
	RequestTimeout time.Duration
	// MaxResultRows caps rows returned by one projection (default 10000);
	// a SELECT without LIMIT is truncated at the cap and marked truncated.
	MaxResultRows int
}

func (c *Config) withDefaults() Config {
	out := Config{}
	if c != nil {
		out = *c
	}
	if out.BatchWindow <= 0 {
		out.BatchWindow = 250 * time.Microsecond
	}
	if out.BatchMax <= 0 {
		out.BatchMax = 64
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 256
	}
	if out.QueueWait < 0 {
		out.QueueWait = 0
	} else if out.QueueWait == 0 {
		out.QueueWait = 2 * time.Millisecond
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 1024
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 5 * time.Second
	}
	if out.MaxResultRows <= 0 {
		out.MaxResultRows = 10000
	}
	return out
}

// Server serves floodsql over HTTP against one store. Construct with New,
// mount Handler on an http.Server, and call Close on the way out (after
// http.Server.Shutdown) to drain batches and release the store.
type Server struct {
	store  flood.Store
	schema *flood.Schema
	cfg    Config

	sem        chan struct{}
	col        *collector
	cache      *resultCache
	baseCtx    context.Context
	baseCancel context.CancelFunc

	closing  atomic.Bool
	closed   sync.Once
	closeErr error
	handlers sync.WaitGroup

	muts           atomic.Int64
	requests       atomic.Int64
	aggQueries     atomic.Int64
	selects        atomic.Int64
	mutations      atomic.Int64
	insertedRows   atomic.Int64
	shed           atomic.Int64
	timeouts       atomic.Int64
	errorCount     atomic.Int64
	queuedRequests atomic.Int64
	queueWaitNs    atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
}

// New wraps a store — flood.NewAdaptiveIndex, flood.NewSharded, their durable
// forms, or whatever flood.OpenStore reopened — in the serving tier. The
// server takes ownership of the store's lifecycle: Close checkpoints it
// (which a durable store turns into a snapshot and an in-memory one ignores)
// and closes it. GET /stats carries a per-shard block when the store has one.
func New(store flood.Store, cfg *Config) *Server {
	c := cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      store,
		schema:     store.Schema(),
		cfg:        c,
		sem:        make(chan struct{}, c.MaxInFlight),
		cache:      newResultCache(c.CacheEntries),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.col = newCollector(store, c.BatchWindow, c.BatchMax, ctx)
	return s
}

// NewDurable is New; it remains only because benchmark/ calls it.
func NewDurable(d *flood.DurableIndex, cfg *Config) *Server { return New(d, cfg) }

// version is the cache epoch: acknowledged mutations plus completed
// adaptive generation swaps (summed across shards for a sharded store).
// Both terms are monotonic, so any mutation, relearn, or merge — in any
// shard — strictly advances it and strands every older entry.
func (s *Server) version() uint64 {
	return uint64(s.muts.Load()) + uint64(s.store.Epoch())
}

// refTable is a table describing the store's columns: shard 0's base table
// (all shards share column names and schema; only /schema's value bounds
// need the per-shard fold).
func (s *Server) refTable() *flood.Table { return s.store.Shard(0).Index().Table() }

// Close drains and shuts down: in-flight handlers finish, queued batches
// flush through the collector, and then the store is released — checkpoint
// first (so a durable store's acknowledged writes are both WAL-durable and
// snapshotted), then close. Callers running an http.Server should Shutdown
// it first so no new requests race the drain; requests arriving during
// Close are refused with 503. Safe to call more than once.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.closed.Do(func() {
		s.handlers.Wait()
		s.col.close()
		s.baseCancel()
		if err := s.store.Checkpoint(); err != nil {
			s.closeErr = fmt.Errorf("server: shutdown checkpoint: %w", err)
		}
		if err := s.store.Close(); s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// Handler returns the HTTP routing surface; mount it as an http.Server (or
// httptest.Server) handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.wrap(s.handleQuery))
	mux.HandleFunc("GET /schema", s.wrap(s.handleSchema))
	mux.HandleFunc("GET /stats", s.wrap(s.handleStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

// wrap is the per-request envelope: request counting and the shutdown
// barrier (register with the drain group first, then check the closing
// flag, so Close's Wait never misses a handler that slipped past the flag).
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.handlers.Add(1)
		defer s.handlers.Done()
		if s.closing.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		s.requests.Add(1)
		h(w, r)
	}
}

// admit acquires an in-flight slot, waiting up to QueueWait. It returns the
// release func, the time spent queued, and false when the request was shed.
func (s *Server) admit(ctx context.Context) (func(), time.Duration, bool) {
	select {
	case s.sem <- struct{}{}:
		return s.release, 0, true
	default:
	}
	s.queuedRequests.Add(1)
	start := time.Now()
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		wait := time.Since(start)
		s.queueWaitNs.Add(int64(wait))
		return s.release, wait, true
	case <-timer.C:
	case <-ctx.Done():
	}
	s.queueWaitNs.Add(int64(time.Since(start)))
	s.shed.Add(1)
	return nil, time.Since(start), false
}

func (s *Server) release() { <-s.sem }

// deadlineFor resolves one request's execution deadline: the server's
// request timeout, tightened (never extended) by the request's timeout_ms.
func (s *Server) deadlineFor(timeoutMillis int64) time.Time {
	timeout := s.cfg.RequestTimeout
	// Compared in milliseconds before converting: a timeout_ms past
	// ~292 years overflows time.Duration.
	if timeoutMillis > 0 && timeoutMillis <= timeout.Milliseconds() {
		timeout = time.Duration(timeoutMillis) * time.Millisecond
	}
	return time.Now().Add(timeout)
}

// parse compiles sql against the serving schema (typed) or the current
// epoch's raw table.
func (s *Server) parse(sql string) (*floodsql.Statement, error) {
	if s.schema != nil {
		return floodsql.ParseTyped(sql, s.schema)
	}
	return floodsql.Parse(sql, s.refTable())
}

// reply is how every POST /query request ends: one place stamps a response
// with the request's queue and service times, and one maps an execution
// error onto the wire.
type reply struct {
	s         *Server
	w         http.ResponseWriter
	start     time.Time
	queueWait time.Duration
}

// ok sends resp.
func (r reply) ok(resp QueryResponse) {
	resp.QueueMicros = r.queueWait.Microseconds()
	resp.ElapsedMicros = time.Since(r.start).Microseconds()
	writeJSON(r.w, resp)
}

// failed reports a read that did not complete: 504 and a timeout when the
// deadline or the client stopped it after stats.Scanned rows, 500 and an
// error otherwise.
func (r reply) failed(err error, stats flood.Stats) {
	if errors.Is(err, flood.ErrCanceled) {
		r.s.timeouts.Add(1)
		writeError(r.w, http.StatusGatewayTimeout, "deadline exceeded after scanning "+fmt.Sprint(stats.Scanned)+" rows")
		return
	}
	r.s.errorCount.Add(1)
	writeError(r.w, http.StatusInternalServerError, err.Error())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, "empty sql")
		return
	}
	release, queueWait, ok := s.admit(r.Context())
	if !ok {
		w.Header().Set("Retry-After", "0")
		writeError(w, http.StatusTooManyRequests, "server overloaded; retry")
		return
	}
	defer release()

	st, err := s.parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline := s.deadlineFor(req.TimeoutMillis)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	rp := reply{s: s, w: w, start: time.Now(), queueWait: queueWait}

	switch st.Agg {
	case "select":
		s.selects.Add(1)
		s.runSelect(rp, ctx, st)
	case "delete", "update", "insert":
		// The cache version advances whenever the store may have changed — a
		// mutation can apply rows and then fail (a later row rejected, a WAL
		// error after the first disjunct) — so no aggregate cached before it
		// is served after it.
		n, err := st.Exec(s.store)
		s.mutations.Add(1)
		if st.Agg == "insert" {
			s.insertedRows.Add(n)
		}
		if err == nil || n > 0 {
			s.muts.Add(1)
		}
		if err != nil {
			s.errorCount.Add(1)
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		rp.ok(QueryResponse{Kind: "exec", Affected: n})
	default:
		s.aggQueries.Add(1)
		s.runAggregate(rp, ctx, st, strings.TrimSpace(req.SQL), deadline)
	}
}

// runAggregate serves one aggregation: result cache first, then the
// micro-batch collector for single-rectangle statements (the hot path), or
// a direct disjoint-decomposition execution for OR predicates.
func (s *Server) runAggregate(rp reply, ctx context.Context, st *floodsql.Statement, key string, deadline time.Time) {
	w := rp.w
	resp := QueryResponse{Kind: "agg", Agg: st.Agg}
	ver := s.version()
	if e, ok := s.cache.get(key, ver); ok {
		s.cacheHits.Add(1)
		resp.Value, resp.Matched, resp.Cached = e.value, e.matched, true
		resp.Typed = st.Typed(e.value, e.matched)
		rp.ok(resp)
		return
	}
	if s.cache != nil {
		s.cacheMisses.Add(1)
	}
	qs, agg := st.Queries()
	if agg == nil {
		writeError(w, http.StatusBadRequest, "unsupported aggregate "+st.Agg)
		return
	}
	var stats flood.Stats
	var err error
	if len(qs) == 1 {
		j := &aggJob{q: qs[0], agg: agg, deadline: deadline, done: make(chan aggResult, 1)}
		if s.col.submit(j) != nil {
			s.shed.Add(1)
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, "batch queue full; retry")
			return
		}
		select {
		case res := <-j.done:
			stats, err, resp.BatchSize = res.stats, res.err, res.batchSize
		case <-ctx.Done():
			s.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for batch")
			return
		}
	} else {
		stats, err = flood.ExecuteOrContext(ctx, s.store, qs, agg)
	}
	if err != nil {
		rp.failed(err, stats)
		return
	}
	resp.Value, resp.Matched, resp.Scanned = agg.Result(), stats.Matched, stats.Scanned
	resp.Typed = st.Typed(resp.Value, stats.Matched)
	s.cache.put(key, cacheEntry{ver: ver, value: resp.Value, matched: stats.Matched})
	rp.ok(resp)
}

// runSelect serves one projection through the typed row cursor, capping the
// response at MaxResultRows: the statement is this request's own, so the cap
// becomes its LIMIT.
func (s *Server) runSelect(rp reply, ctx context.Context, st *floodsql.Statement) {
	capped := false
	if st.Limit == 0 || st.Limit > s.cfg.MaxResultRows {
		st.Limit = s.cfg.MaxResultRows
		capped = true
	}
	limit := st.Limit
	rows, stats, err := st.SelectContext(ctx, s.store)
	if err != nil {
		rp.failed(err, stats)
		return
	}
	defer rows.Close()
	cols := rows.Columns()
	out := make([][]any, 0, rows.Len())
	for rows.Next() {
		vals := make([]any, len(cols))
		for j := range cols {
			vals[j] = rows.Value(j)
		}
		out = append(out, vals)
	}
	rp.ok(QueryResponse{
		Kind: "rows", Columns: cols, Rows: out,
		Truncated: capped && len(out) == limit, Scanned: stats.Scanned,
	})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	tbl := s.refTable()
	resp := schemaResponse{Rows: s.store.NumRows(), Typed: s.schema != nil}
	for i := 0; i < tbl.NumCols(); i++ {
		kind := "int64"
		if s.schema != nil {
			kind = s.schema.KindAt(i).String()
		}
		mn, mx := s.storeColumnBounds(i)
		resp.Columns = append(resp.Columns, columnInfo{
			Name: tbl.Name(i), Kind: kind, Min: mn, Max: mx,
		})
	}
	writeJSON(w, resp)
}

// storeColumnBounds folds column i's physical [min,max] domain across every
// shard's base table (0,0 when the column is empty everywhere).
func (s *Server) storeColumnBounds(i int) (int64, int64) {
	mn, mx := int64(0), int64(0)
	seen := false
	for sh := 0; sh < s.store.NumShards(); sh++ {
		c := s.store.Shard(sh).Index().Table().Column(i)
		if c.Len() == 0 {
			continue
		}
		bmn, bmx := columnBounds(c)
		if !seen || bmn < mn {
			mn = bmn
		}
		if !seen || bmx > mx {
			mx = bmx
		}
		seen = true
	}
	return mn, mx
}

// columnBounds folds a non-empty column's per-block zone maps into a
// physical [min,max] domain.
func columnBounds(c *colstore.Column) (int64, int64) {
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	for b := 0; b < c.NumBlocks(); b++ {
		bmn, bmx := c.BlockBounds(b)
		if bmn < mn {
			mn = bmn
		}
		if bmx > mx {
			mx = bmx
		}
	}
	return mn, mx
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// Stats snapshots the serving counters (also the GET /stats payload).
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:        s.requests.Load(),
		AggQueries:      s.aggQueries.Load(),
		Selects:         s.selects.Load(),
		Mutations:       s.mutations.Load(),
		InsertedRows:    s.insertedRows.Load(),
		Shed:            s.shed.Load(),
		Timeouts:        s.timeouts.Load(),
		Errors:          s.errorCount.Load(),
		QueuedRequests:  s.queuedRequests.Load(),
		QueueWaitMicros: s.queueWaitNs.Load() / 1000,
		Batches:         s.col.batches.Load(),
		BatchedQueries:  s.col.batchedJobs.Load(),
		MultiBatches:    s.col.multiBatches.Load(),
		MaxBatch:        s.col.maxBatch.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		CacheVersion:    s.version(),
		InFlight:        len(s.sem),
		IndexEpoch:      s.store.Epoch(),
		Shards:          s.store.ShardStats(),
		ScanKernel:      colstore.KernelName(),
	}
	ast := s.store.Stats()
	st.BaseRows, st.PendingRows = ast.BaseRows, ast.PendingRows
	st.Relearns, st.Merges, st.Rebuilding = ast.Relearns, ast.Merges, ast.Rebuilding
	if st.Batches > 0 {
		st.AvgBatch = float64(st.BatchedQueries) / float64(st.Batches)
	}
	return st
}

// --- wire types ---

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// SQL is the floodsql statement to run.
	SQL string `json:"sql"`
	// TimeoutMillis tightens the server's request timeout for this request
	// (0 keeps the server default; larger values are capped to it).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the POST /query result envelope; Kind selects which
// fields are meaningful ("agg", "rows", or "exec").
type QueryResponse struct {
	// Kind is "agg" (aggregate), "rows" (projection), or "exec" (mutation).
	Kind string `json:"kind"`
	// Agg names the aggregate function for Kind "agg".
	Agg string `json:"agg,omitempty"`
	// Value is the aggregate result in the physical int64 domain.
	Value int64 `json:"value,omitempty"`
	// Typed is the aggregate result decoded through the schema (float for
	// decimal columns, RFC3339 for time MIN/MAX, null for an empty
	// MIN/MAX).
	Typed any `json:"typed,omitempty"`
	// Matched is the number of rows the aggregate saw.
	Matched int64 `json:"matched,omitempty"`
	// Cached reports the result was served from the epoch-keyed cache.
	Cached bool `json:"cached,omitempty"`
	// BatchSize is how many concurrent queries shared this request's
	// ExecuteBatchContext call (0 when the request bypassed the collector).
	BatchSize int `json:"batch_size,omitempty"`
	// Columns and Rows carry a projection result (Kind "rows"); values are
	// decoded through the schema.
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// Truncated reports the projection hit the server's row cap.
	Truncated bool `json:"truncated,omitempty"`
	// Affected is the mutation's affected-row count (Kind "exec").
	Affected int64 `json:"affected,omitempty"`
	// Scanned is the number of storage rows visited.
	Scanned int64 `json:"scanned,omitempty"`
	// QueueMicros is time spent waiting for admission; ElapsedMicros is
	// parse-through-execution service time.
	QueueMicros   int64 `json:"queue_us"`
	ElapsedMicros int64 `json:"elapsed_us"`
}

// columnInfo describes one column of GET /schema: its logical kind and the
// physical int64 domain observed in the base table.
type columnInfo struct {
	// Name is the column name; Kind its logical kind ("int64", "float64",
	// "string", "time").
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Min and Max bound the column's physical int64 values.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
}

// schemaResponse is the GET /schema payload.
type schemaResponse struct {
	// Columns lists the table's columns in schema order.
	Columns []columnInfo `json:"columns"`
	// Rows is the current total row count (base + pending inserts).
	Rows int `json:"rows"`
	// Typed reports whether the server carries a typed schema (projections
	// and string/float literals available).
	Typed bool `json:"typed"`
}

// Stats is the GET /stats payload: serving counters since process start
// plus a snapshot of the adaptive index lifecycle.
type Stats struct {
	// Requests counts HTTP requests accepted past the shutdown barrier;
	// AggQueries/Selects/Mutations split the dispatched statements.
	Requests   int64 `json:"requests"`
	AggQueries int64 `json:"agg_queries"`
	Selects    int64 `json:"selects"`
	Mutations  int64 `json:"mutations"`
	// InsertedRows counts rows accepted through INSERT.
	InsertedRows int64 `json:"inserted_rows"`
	// Shed counts requests refused with 429 (admission or batch intake
	// full); Timeouts counts 504s; Errors counts 4xx/5xx execution
	// failures.
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Errors   int64 `json:"errors"`
	// QueuedRequests counts admissions that had to wait; QueueWaitMicros
	// is their cumulative wait.
	QueuedRequests  int64 `json:"queued_requests"`
	QueueWaitMicros int64 `json:"queue_wait_us"`
	// Batches counts collector executions; BatchedQueries the member
	// queries they carried; MultiBatches those with more than one member;
	// MaxBatch the largest batch; AvgBatch the mean members per batch.
	Batches        int64   `json:"batches"`
	BatchedQueries int64   `json:"batched_queries"`
	MultiBatches   int64   `json:"multi_batches"`
	MaxBatch       int64   `json:"max_batch"`
	AvgBatch       float64 `json:"avg_batch"`
	// CacheHits/CacheMisses count result-cache outcomes; CacheVersion is
	// the current invalidation epoch (mutations + index swaps).
	CacheHits    int64  `json:"cache_hits"`
	CacheMisses  int64  `json:"cache_misses"`
	CacheVersion uint64 `json:"cache_version"`
	// InFlight is the current admitted-request gauge.
	InFlight int `json:"in_flight"`
	// IndexEpoch, BaseRows, PendingRows, Relearns, Merges, and Rebuilding
	// snapshot the adaptive index lifecycle (BaseRows the learned base,
	// PendingRows the unmerged insert log). On a sharded server the row and
	// rebuild counters are summed across shards, IndexEpoch is the sum of
	// shard epochs, and Rebuilding reports any shard rebuilding.
	IndexEpoch  int64 `json:"index_epoch"`
	BaseRows    int   `json:"base_rows"`
	PendingRows int   `json:"pending_rows"`
	Relearns    int64 `json:"relearns"`
	Merges      int64 `json:"merges"`
	Rebuilding  bool  `json:"rebuilding"`
	// Shards carries the per-shard lifecycle block on a sharded server
	// (absent on a flat one): each shard's key range on the split dimension
	// and an independent lifecycle snapshot.
	Shards []flood.ShardStat `json:"shards,omitempty"`
	// ScanKernel names the packed compare under the scan stage of this
	// process ("avx2", "generated" or "scalar"): chosen from the platform at
	// start-up, recorded so a latency number says which kernel produced it.
	ScanKernel string `json:"scan_kernel"`
}

// --- helpers ---

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// badBody answers a POST body that did not decode: 413 when it ran past
// maxBodyBytes, 400 otherwise.
func badBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON2(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSON2(w, http.StatusOK, v) }

func writeJSON2(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
