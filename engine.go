// The engine contract: the one execution interface under every facade.
//
// Flood, AdaptiveIndex (and DurableIndex, which embeds it), and ShardedIndex
// differ only in how one query reaches storage: straight into the learned
// index, through the current generation's base index and insert log with the
// lifecycle bookkeeping, or pruned and fanned out across shards. Each says
// that once, as an engine; the public query surface — Execute, ExecuteBatch,
// ExecuteOr, Select and their context-aware twins — is written once, on the
// surface struct the facades embed, in terms of it. A nil control is the
// unconditioned execution, so the plain and the context-aware entry points
// are the same path. docs/ARCHITECTURE.md ("Engine contract") lists which
// behaviour each entry point derives from the contract.
package flood

import (
	"context"
	"fmt"

	"flood/internal/core"
	"flood/internal/query"
)

// engine is what a facade is to the query surface: something that can pin
// the generation an execution runs against. A batch or a disjunction pins
// once, so all of its queries see one consistent image of the data.
type engine interface {
	pin() generation
}

// generation executes queries against one immutable image of a facade's
// data and does the facade's own bookkeeping for them.
type generation interface {
	// run executes one query under ctl (nil = unconditioned). workers is 0
	// for the adaptive scan strategy or 1 to pin the sequential kernel (a
	// batch member: the batch supplies the parallelism); cutover overrides
	// the parallel cutover (0 keeps the index default). A RowCollector is
	// handed ids in the facade's stable id space: base rows first, then the
	// insert log, each shard in its own stride.
	run(ctl *query.Control, q Query, agg Aggregator, workers, cutover int) Stats
	// runPieces executes the disjoint pieces of one disjunction. The pieces
	// are fractions of a query and bypass per-query bookkeeping; shapes,
	// the disjunction's original rectangles, are recorded once instead.
	runPieces(ctl *query.Control, pieces, shapes []Query, agg Aggregator, cutover int) Stats
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
// run a zero-allocation sequential scan; queries whose refined ranges clear
// Options.ParallelCutoverRows fan out over a process-wide worker pool when
// the aggregator supports merging (all built-in aggregators do). Safe for
// any number of goroutines. An AdaptiveIndex serves the query against its
// current generation — learned base plus insert log — and records it in the
// workload sample and drift monitor; a ShardedIndex prunes shards outside
// the predicate's split-dimension range, delegates to a single surviving
// shard directly, and otherwise fans out in parallel with per-shard
// aggregator clones merged at the end.
func (s *surface) Execute(q Query, agg Aggregator) Stats {
	return s.eng.pin().run(nil, q, agg, 0, 0)
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
	st := s.eng.pin().run(ctl, q, agg, 0, 0)
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
			stats[i] = g.run(ctl, queries[i], aggs[i], 1, 0)
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
	return s.executeOr(nil, queries, agg, 0)
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
	st := s.executeOr(ctl, queries, agg, 0)
	return st, finish(ctl)
}

func (s *surface) executeOr(ctl *query.Control, queries []Query, agg Aggregator, cutover int) Stats {
	d := query.Decompose(queries)
	st := s.eng.pin().runPieces(ctl, d.Pieces, queries, agg, cutover)
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
// on the result need the index's schema (SetSchema, or Options.Schema at
// build time).
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
	r, ctl, err := s.openRows(ctx, opts, cols)
	if err != nil {
		return r, Stats{}, err
	}
	return r.finish(ctl, s.eng.pin().run(ctl, q, &r.rc, 0, opts.cutover()))
}

// selectOr is SelectContext over a disjunction; the pieces share the
// cancellation signal and the limit budget.
func (s *surface) selectOr(ctx context.Context, queries []Query, opts *QueryOptions, cols []string) (*Rows, Stats, error) {
	r, ctl, err := s.openRows(ctx, opts, cols)
	if err != nil {
		return r, Stats{}, err
	}
	return r.finish(ctl, s.executeOr(ctl, queries, &r.rc, opts.cutover()))
}

// openRows starts a select: a pooled cursor with the projection resolved,
// and the control for (ctx, opts). On an already-expired context the cursor
// comes back empty and ready to close.
func (s *surface) openRows(ctx context.Context, opts *QueryOptions, cols []string) (*Rows, *query.Control, error) {
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
// contract: a control reaches the index's own control path when it has one
// (every baseline, via query.ControlIndex) and is otherwise enforced at the
// aggregator, so the "at most Limit rows delivered" contract holds even
// though such a scan cannot be stopped early (its Stats count the full
// scan).
type foreign struct {
	surface
	idx Index
}

func (f *foreign) pin() generation { return f }

func (f *foreign) run(ctl *query.Control, q Query, agg Aggregator, _, _ int) Stats {
	if ctl == nil {
		return f.idx.Execute(q, agg)
	}
	if ci, ok := f.idx.(query.ControlIndex); ok {
		return ci.ExecuteControl(ctl, q, agg)
	}
	return f.idx.Execute(q, query.ControlledAggregator(ctl, agg))
}

func (f *foreign) runPieces(ctl *query.Control, pieces, _ []Query, agg Aggregator, cutover int) Stats {
	return runEach(f, ctl, pieces, agg, cutover)
}

// runEach runs the pieces in order against g until the control latches.
func runEach(g generation, ctl *query.Control, pieces []Query, agg Aggregator, cutover int) Stats {
	var total Stats
	for _, piece := range pieces {
		if ctl.Stopped() {
			break
		}
		total.Add(g.run(ctl, piece, agg, 0, cutover))
	}
	return total
}

// pin implements engine: a built Flood index is its own single generation.
func (f *Flood) pin() generation { return f }

// run implements generation: project, refine, scan (§3.2), with nothing to
// record.
func (f *Flood) run(ctl *query.Control, q Query, agg Aggregator, workers, cutover int) Stats {
	if workers == 1 {
		return f.idx.ExecuteSequentialControl(ctl, q, agg)
	}
	return f.idx.ExecuteControl(ctl, q, agg, cutover)
}

func (f *Flood) runPieces(ctl *query.Control, pieces, _ []Query, agg Aggregator, cutover int) Stats {
	return runEach(f, ctl, pieces, agg, cutover)
}
