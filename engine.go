// The engine contract: the one execution interface under every facade.
//
// Flood, AdaptiveIndex, and ShardedIndex differ only in how one query reaches
// storage — straight into the learned index, through the current generation's
// base index and insert log with the lifecycle bookkeeping, or pruned and
// fanned out across shards — and in how one write does: tombstones only, the logged lock-hold of a generation
// owner, or split by shard. Each says both once, as an engine; the public
// query surface — Execute, ExecuteBatch, ExecuteOr, Select and their
// context-aware twins — is written once, on the surface struct the facades
// embed, and the write surface — Insert, Delete, DeleteRows, Update — once on
// the mutableSurface struct the mutable ones embed, in terms of it. A nil
// control is the unconditioned execution, so the plain and the context-aware
// entry points are the same path. The third contract, Store, is the lifecycle
// the two mutable facades share — in memory or over a directory — and what
// every consumer (the server, the model tests, the commands) holds.
// docs/ARCHITECTURE.md ("Engine contract") lists which behaviour each entry
// point derives from the contracts.
package flood

import (
	"context"
	"errors"
	"fmt"

	"flood/internal/core"
	"flood/internal/query"
)

// engine is what a facade is to its public surface: something that can pin
// the generation an execution runs against — a batch or a disjunction pins
// once, so all of its queries see one consistent image of the data — and
// apply one mutation to the data.
type engine interface {
	pin() generation
	// apply carries out m and returns the rows it affected: victims newly
	// tombstoned plus rows appended (an Update counts its victims once). On
	// an error the count is what had been applied before it.
	apply(m mutation) (int64, error)
}

// mutation is one write, the single value every Insert, Delete, DeleteRows
// and Update — live, replayed from a WAL, or re-applied at a generation swap
// — is expressed in. Victims are named one way: by predicate, by Select id,
// or by value.
type mutation struct {
	// where names every live row matching the predicate.
	where *Query
	// ids names rows by Select id; dead, repeated and out-of-range ids are
	// skipped.
	ids []int64
	// tuples names victims by value, one live row per tuple (k copies delete
	// the first k live matches, base rows before log rows; a tuple with no
	// live match is skipped). The box bounding the tuples is resolved like
	// where, and each row in it looked up among them (adaptiveEpoch.byValue).
	// It is how a deletion resolved against one physical layout applies to
	// another: WAL replay, and the swap's re-application of every delete
	// that landed during the rebuild.
	tuples [][]int64
	// rewrite appends a copy of every victim with set applied (an Update; an
	// empty set rewrites the rows unchanged).
	rewrite bool
	set     []Assignment
	// rows are appended.
	rows [][]int64
	// moved, when set, receives the rewritten copies instead of the engine
	// appending them: the caller owns their placement (a sharded Update that
	// assigns the split dimension).
	moved *[][]int64
}

// Store is a serving store and its whole life: the query surface, the write
// surface, the counters, and the lifecycle — wait, checkpoint, close — spelled
// the same whether the store is flat or sharded, in memory or over a
// directory. *AdaptiveIndex and *ShardedIndex implement it; NewAdaptiveIndex
// and NewSharded build the in-memory forms, CreateDurable and
// CreateShardedDurable the durable ones, and OpenStore reopens either from its
// directory. Durability is where a store lives, not another type: on an
// in-memory store Checkpoint does nothing and returns nil, and Close only
// stops background work. TestFacadeConformance holds all four forms as a Store
// and checks each guarantee below.
type Store interface {
	Index
	ExecuteBatchContext(ctx context.Context, queries []Query, aggs []Aggregator) ([]Stats, error)
	Select(q Query, cols ...string) (*Rows, Stats)
	Inserter
	Deleter
	Updater
	DeleteRows(ids []int64) (int64, error)

	// Schema is the typed schema the store was built with (nil over a raw
	// int64 table).
	Schema() *Schema
	// NumRows counts physical rows, LiveRows the rows a query can observe.
	NumRows() int
	LiveRows() int
	// Epoch counts completed generation swaps, summed over shards; it never
	// moves backwards.
	Epoch() int64
	// Stats is the lifecycle snapshot, folded over shards: counts add,
	// Rebuilding is any shard's, LastSwap the latest, LastError the first,
	// and the per-monitor Reference and WindowAverage stay zero.
	Stats() AdaptiveStats

	// NumShards and Shard reach the adaptive indexes underneath — for
	// per-shard triggers, layouts and tables; a flat store is its own shard
	// 0. ShardStats is the per-shard block, nil for a flat store.
	NumShards() int
	Shard(i int) *AdaptiveIndex
	ShardStats() []ShardStat

	// Wait blocks until no background rebuild is in flight.
	Wait()
	// Checkpoint absorbs the write-ahead log into a fresh snapshot, leaving a
	// directory OpenStore reopens to the same rows; nil and no effect in
	// memory.
	Checkpoint() error
	// Close stops background work and, over a directory, syncs and closes
	// the log. Queries stay valid afterwards, and so do writes in memory;
	// over a directory every later write and Checkpoint returns an error. A
	// second Close is a no-op.
	Close() error
}

var (
	_ Store = (*AdaptiveIndex)(nil)
	_ Store = (*ShardedIndex)(nil)
)

// errClosed is what a durable store answers a write or a Checkpoint with
// after Close: it can no longer log them.
var errClosed = errors.New("flood: durable store is closed")

// mutableSurface is surface plus the write API, embedded by the facades that
// accept every mutation: the methods below are their Insert, Delete,
// DeleteRows and Update, and each only names a mutation for the engine's
// apply.
type mutableSurface struct{ surface }

// Insert appends one encoded row (one value per dimension, physical column
// order). The row is visible to queries as soon as Insert returns; on a
// durable store it is logged before it is published and acknowledged per the
// log's sync policy. A ShardedIndex routes the row to the shard owning its
// split-dimension value. When an insert log exceeds MergeFraction of its
// base, a background merge is scheduled; Insert never blocks on index
// building.
func (s *mutableSurface) Insert(row []int64) error {
	_, err := s.eng.apply(mutation{rows: [][]int64{row}})
	return err
}

// Delete tombstones every live row matching q — base index and insert log,
// in every shard the predicate reaches — and returns how many rows were newly
// deleted. On a durable store the deletion is logged (as resolved row values,
// which replay identically against any rebuilt physical layout) before the
// tombstones are published. Safe to call concurrently with queries and
// background rebuilds; concurrent mutators serialize on the writer lock of
// the index (or shard) they reach. A sharded sweep is atomic per shard, not a
// transaction across shards.
func (s *mutableSurface) Delete(q Query) (int64, error) {
	return s.eng.apply(mutation{where: &q})
}

// DeleteRows tombstones rows by their Select ids — base rows tile first
// [0, base), insert-log rows follow, each shard in its own id stride — and
// returns how many were newly deleted. Ids already dead, duplicated, or out
// of range are skipped. Same concurrency and durability contract as Delete,
// with one caveat: ids are physical positions in the generation that produced
// them, so they are only meaningful until that index's (or shard's) next
// layout swap — a merge or relearn (including the autonomous ones
// MergeFraction and drift scheduling trigger) renumbers rows, and stale ids
// will delete the wrong rows or none. Callers that cannot bracket
// Select→DeleteRows against rebuilds should use the predicate form, which is
// layout-independent.
func (s *mutableSurface) DeleteRows(ids []int64) (int64, error) {
	return s.eng.apply(mutation{ids: ids})
}

// Update rewrites every live row matching q with the assignments applied and
// returns the number of rows updated. Within one index (or one shard) the old
// versions are tombstoned and the modified copies appended to the insert log
// under one writer-lock hold; on a durable store the delete record and the
// re-inserted rows are logged in that order, so replay reproduces the
// rewrite. An out-of-range assignment is rejected before anything is touched.
// A concurrent reader may observe the instant between the tombstoning and a
// re-insert (mutations are atomic per structure, not transactional — see
// docs/MUTATIONS.md).
//
// On a ShardedIndex an assignment to the split dimension can move rows
// between shards. Each surviving shard tombstones its matching rows and
// hands back their rewritten copies from one lock hold — so a row another
// writer inserts or deletes concurrently is either rewritten whole or left
// whole, never lost or resurrected — and the copies are re-inserted, routed
// by their new split value, only after every surviving shard has been swept,
// so a rewritten row can never match q a second time. The sequence is atomic
// per shard but not transactional across shards (a concurrent reader can
// observe the gap; a crash between the phases in the durable form can lose
// the re-insert).
func (s *mutableSurface) Update(q Query, set []Assignment) (int64, error) {
	return s.eng.apply(mutation{where: &q, rewrite: true, set: set})
}

// generation executes queries against one immutable image of a facade's
// data and does the facade's own bookkeeping for them.
type generation interface {
	// run executes one query under ctl (nil = unconditioned). workers is 0
	// for the adaptive scan strategy or 1 to pin the sequential kernel (a
	// batch member: the batch supplies the parallelism). A RowCollector is
	// handed ids in the facade's stable id space: base rows first, then the
	// insert log, each shard in its own stride.
	run(ctl *query.Control, q Query, agg Aggregator, workers int) Stats
	// runPieces executes the disjoint pieces of one disjunction. The pieces
	// are fractions of a query and bypass per-query bookkeeping; shapes,
	// the disjunction's original rectangles, are recorded once instead.
	runPieces(ctl *query.Control, pieces, shapes []Query, agg Aggregator) Stats
}

// surface is the query API shared by every facade. The facades embed it, so
// the methods below are their Execute, ExecuteBatch, ExecuteOr, and Select
// families.
type surface struct {
	eng    engine
	schema *Schema     // optional: decodes Select results
	cols   colResolver // resolves projection names
}

func newSurface(eng engine, schema *Schema, names []string) surface {
	return surface{eng: eng, schema: schema, cols: nameResolver(names)}
}

// Schema returns the typed schema the facade was built with (nil when it was
// built from raw int64 columns).
func (s *surface) Schema() *Schema { return s.schema }

// facade exposes the embedded surface to the package-level helpers.
func (s *surface) facade() *surface { return s }

// surfaceOf returns the query surface of any index: a facade's own, or a
// fallback adapter for indexes from outside this package's facades (the
// baselines, caller implementations) with schema resolving projections.
func surfaceOf(idx Index, schema *Schema) *surface {
	if f, ok := idx.(interface{ facade() *surface }); ok {
		return f.facade()
	}
	f := &foreign{idx: idx}
	f.surface = surface{eng: f, schema: schema, cols: schema}
	return &f.surface
}

// finish ends a controlled execution: one last cancellation poll, so a stop
// landing anywhere before the call returns is reported, then release.
func finish(ctl *query.Control) error {
	err := ctl.Finish()
	ctl.Release()
	return err
}

// Execute runs q through the index, feeding matching rows to agg. The
// aggregator is not reset: callers reset it between queries. Small queries
// run a zero-allocation sequential scan; queries whose refined ranges cover
// 32K rows or more fan out over a process-wide worker pool when
// the aggregator supports merging (all built-in aggregators do). Safe for
// any number of goroutines. An AdaptiveIndex serves the query against its
// current generation — learned base plus insert log — and records it in the
// workload sample and drift monitor; a ShardedIndex prunes shards outside
// the predicate's split-dimension range, delegates to a single surviving
// shard directly, and otherwise fans out in parallel with per-shard
// aggregator clones merged at the end.
func (s *surface) Execute(q Query, agg Aggregator) Stats {
	return s.eng.pin().run(nil, q, agg, 0)
}

// ExecuteContext is Execute under ctx: execution stops cooperatively once
// ctx is canceled or its deadline passes, returning the partial Stats
// together with ErrCanceled. An already-expired context returns promptly
// without scanning. With context.Background() the call is identical to
// Execute — same path, same zero-allocation steady state. Canceled
// executions reach neither the drift monitor nor the workload sample.
func (s *surface) ExecuteContext(ctx context.Context, q Query, agg Aggregator) (Stats, error) {
	ctl, err := getControl(ctx, nil)
	if err != nil {
		return Stats{}, err
	}
	st := s.eng.pin().run(ctl, q, agg, 0)
	return st, finish(ctl)
}

// ExecuteBatch executes queries[i] into aggs[i] and returns per-query stats,
// all against one pinned generation. The batch shares one worker pool across
// queries — each runs its zero-alloc sequential path while the batch fans
// out across cores — which is the highest-throughput arrangement for serving
// many concurrent queries. len(queries) must equal len(aggs); aggregators
// are not reset.
func (s *surface) ExecuteBatch(queries []Query, aggs []Aggregator) []Stats {
	return s.executeBatch(nil, queries, aggs)
}

// ExecuteBatchContext is ExecuteBatch under ctx: one cancellation stops
// every query in the batch, queries not yet started are skipped (their
// Stats stay zero), and the partial per-query stats return with
// ErrCanceled.
func (s *surface) ExecuteBatchContext(ctx context.Context, queries []Query, aggs []Aggregator) ([]Stats, error) {
	ctl, err := getControl(ctx, nil)
	if err != nil {
		return make([]Stats, len(queries)), err
	}
	stats := s.executeBatch(ctl, queries, aggs)
	return stats, finish(ctl)
}

func (s *surface) executeBatch(ctl *query.Control, queries []Query, aggs []Aggregator) []Stats {
	if len(queries) != len(aggs) {
		panic(fmt.Sprintf("flood: ExecuteBatch got %d queries but %d aggregators", len(queries), len(aggs)))
	}
	g := s.eng.pin()
	stats := make([]Stats, len(queries))
	core.RunBatch(len(queries), func(i int) {
		if !ctl.Stopped() {
			stats[i] = g.run(ctl, queries[i], aggs[i], 1)
		}
	})
	return stats
}

// ExecuteOr evaluates a disjunction (OR) of conjunctive queries against one
// pinned generation, decomposing the rectangles into disjoint pieces so
// every matching row is accumulated exactly once (§3). On the adaptive
// facades the disjunction counts as one served query and its rectangles
// feed the workload sample, but the decomposed pieces bypass the drift
// monitor: per-piece times are fractions of a query and would dilute the
// window average against the per-query reference cost.
func (s *surface) ExecuteOr(queries []Query, agg Aggregator) Stats {
	return s.executeOr(nil, queries, agg)
}

// ExecuteOrContext is ExecuteOr under ctx: the disjoint pieces share one
// cancellation signal, a stop between or inside pieces returns the partial
// Stats with ErrCanceled, and rows accumulated before the stop remain in
// agg.
func (s *surface) ExecuteOrContext(ctx context.Context, queries []Query, agg Aggregator) (Stats, error) {
	ctl, err := getControl(ctx, nil)
	if err != nil {
		return Stats{}, err
	}
	st := s.executeOr(ctl, queries, agg)
	return st, finish(ctl)
}

func (s *surface) executeOr(ctl *query.Control, queries []Query, agg Aggregator) Stats {
	if len(queries) == 1 {
		// One rectangle is its own disjoint decomposition, or none at all
		// when it is empty.
		pieces := queries
		if queries[0].Empty() {
			pieces = nil
		}
		return s.eng.pin().runPieces(ctl, pieces, queries, agg)
	}
	d := query.Decompose(queries)
	st := s.eng.pin().runPieces(ctl, d.Pieces, queries, agg)
	d.Release()
	return st
}

// Select executes q and returns the matching rows with the named columns
// projected (none = every column), plus the execution stats. Row gathering
// rides the regular execution engine — zone-map block skipping, the
// selection-vector kernel, and (for large results) the morsel-driven
// parallel scan — so retrieval costs one id append per matching row; small
// selects are allocation-free in steady state once pooled cursors warm up.
// Rows from an insert log follow the base rows in the cursor, and a
// ShardedIndex tiles each shard's rows in that shard's id stride; either
// way DeleteRows accepts the cursor's RowID values directly. Typed accessors
// on the result need the index's schema (Options.Schema at build time, or
// the one a snapshot restores).
func (s *surface) Select(q Query, cols ...string) (*Rows, Stats) {
	r, st, _ := s.SelectContext(context.Background(), q, nil, cols...)
	return r, st
}

// SelectContext is Select under ctx and opts: execution honors the
// context's cancellation and deadline, and opts.Limit is pushed down into
// the scan so at most Limit rows are collected — across the base index, the
// insert log, and every shard — and scanning stops as soon as the budget is
// satisfied: a `LIMIT 10` over a million rows stops after the tenth match.
// A satisfied limit is success (nil error) and feeds the workload sample
// but not the drift monitor, whose window a truncated timing would drag
// down; cancellation returns the rows gathered so far together with
// ErrCanceled (the cursor is always non-nil and must be closed). With a
// background context and nil opts the call is identical to Select.
func (s *surface) SelectContext(ctx context.Context, q Query, opts *QueryOptions, cols ...string) (*Rows, Stats, error) {
	r, ctl, err := s.openRows(ctx, opts, projection{names: cols})
	if err != nil {
		return r, Stats{}, err
	}
	st := s.eng.pin().run(ctl, q, &r.rc, 0)
	return r, st, r.finish(ctl)
}

// selectOr is SelectContext over a disjunction; the pieces share the
// cancellation signal and the limit budget.
func (s *surface) selectOr(ctx context.Context, queries []Query, opts *QueryOptions, cols projection) (*Rows, Stats, error) {
	r, ctl, err := s.openRows(ctx, opts, cols)
	if err != nil {
		return r, Stats{}, err
	}
	st := s.executeOr(ctl, queries, &r.rc)
	return r, st, r.finish(ctl)
}

// openRows starts a select: a pooled cursor with the projection resolved,
// and the control for (ctx, opts). On an already-expired context the cursor
// comes back empty and ready to close.
func (s *surface) openRows(ctx context.Context, opts *QueryOptions, cols projection) (*Rows, *query.Control, error) {
	r := getRows(s.schema, s.cols, cols)
	ctl, err := getControl(ctx, opts)
	if err != nil {
		r.finalize()
	}
	return r, ctl, err
}

// ExecuteOr evaluates a disjunction (OR) of conjunctive queries against any
// index — see the facades' ExecuteOr method. Indexes outside this package's
// facades (the baselines) run each disjoint piece through their Execute.
func ExecuteOr(idx Index, queries []Query, agg Aggregator) Stats {
	return surfaceOf(idx, nil).ExecuteOr(queries, agg)
}

// ExecuteOrContext is ExecuteOr under ctx — see the facades'
// ExecuteOrContext method.
func ExecuteOrContext(ctx context.Context, idx Index, queries []Query, agg Aggregator) (Stats, error) {
	return surfaceOf(idx, nil).ExecuteOrContext(ctx, queries, agg)
}

// foreign adapts an Index from outside this package's facades to the engine
// contract: a control — and the scan strategy with it — reaches the index's
// own controlled entry when it has one (every baseline, via
// query.ControlIndex) and is otherwise enforced at the aggregator, so the "at
// most Limit rows delivered" contract holds even though such a scan cannot be
// stopped early (its Stats count the full scan).
type foreign struct {
	surface
	idx Index
}

func (f *foreign) pin() generation { return f }

func (f *foreign) run(ctl *query.Control, q Query, agg Aggregator, workers int) Stats {
	if ci, ok := f.idx.(query.ControlIndex); ok {
		return ci.Run(ctl, q, agg, workers)
	}
	return f.idx.Execute(q, query.ControlledAggregator(ctl, agg))
}

func (f *foreign) runPieces(ctl *query.Control, pieces, _ []Query, agg Aggregator) Stats {
	return runEach(f, ctl, pieces, agg)
}

// apply implements engine: the adapter is read-only (nothing embeds a
// mutableSurface over it).
func (f *foreign) apply(mutation) (int64, error) {
	return 0, fmt.Errorf("flood: index %s takes no mutations", f.idx.Name())
}

// runEach runs the pieces in order against g until the control latches.
func runEach(g generation, ctl *query.Control, pieces []Query, agg Aggregator) Stats {
	var total Stats
	for _, piece := range pieces {
		if ctl.Stopped() {
			break
		}
		total.Add(g.run(ctl, piece, agg, 0))
	}
	return total
}

// pin implements engine: a built Flood index is its own single generation.
func (f *Flood) pin() generation { return f }

// run implements generation: project, refine, scan (§3.2), with nothing to
// record.
func (f *Flood) run(ctl *query.Control, q Query, agg Aggregator, workers int) Stats {
	return f.idx.Run(ctl, q, agg, workers)
}

func (f *Flood) runPieces(ctl *query.Control, pieces, _ []Query, agg Aggregator) Stats {
	return runEach(f, ctl, pieces, agg)
}
