// Context-aware execution: cancellation, deadlines, and LIMIT pushdown.
//
// Every index in this package (Flood, AdaptiveIndex, ShardedIndex, and the
// baselines behind the Index interface) executes
// queries under a caller's context.Context: ExecuteContext, ExecuteBatchContext, and SelectContext
// stop cooperatively once the context is canceled or a deadline passes,
// returning the partial Stats (rows seen before the stop) together with
// ErrCanceled. Cancellation is polled at morsel-claim boundaries on the
// parallel path and every few storage blocks (~1K rows) in the sequential
// scan kernel, so the cost on uncanceled queries is a fraction of a
// nanosecond per row and the response bound is about a thousand rows.
//
// SelectContext additionally pushes QueryOptions.Limit down into the scan:
// the shared row budget is drawn before survivors reach the row collector,
// so a `LIMIT 10` over a million rows stops scanning after the tenth match
// instead of materializing the full result and truncating it.
//
// The entry points themselves are declared once, on the query surface every
// facade embeds (engine.go). The single-writer delta facade of earlier
// versions is gone; docs/MUTATIONS.md has the four-line migration to
// NewAdaptiveIndex(f, &AdaptiveConfig{MergeFraction: -1}).
package flood

import (
	"context"

	"flood/internal/query"
)

// Sentinel errors returned by context-aware execution. Both accompany
// partial results: the Stats describe the work actually done, and any
// aggregator or row cursor holds the rows delivered before the stop.
var (
	// ErrCanceled reports that execution stopped because the context was
	// canceled or its deadline passed. Inspect ctx.Err() to distinguish the
	// two.
	ErrCanceled = query.ErrCanceled
	// ErrLimitReached reports that execution stopped because the
	// QueryOptions.Limit row budget was exhausted. The Select paths treat
	// it as success (a satisfied LIMIT is the requested outcome); it
	// surfaces only from aggregate execution under an explicit limit.
	ErrLimitReached = query.ErrLimitReached
)

// QueryOptions tunes one context-aware execution. The zero value (or nil)
// applies no limit. Deadlines come from the context (context.WithDeadline).
type QueryOptions struct {
	// Limit stops execution once this many rows have matched (0 =
	// unlimited). The budget is pushed down into the scan kernel and
	// shared by every worker and every sub-scan (base + delta, OR
	// pieces), so at most Limit rows are ever delivered and scanning
	// stops as soon as the budget is drawn dry.
	Limit int
}

// limit returns the configured row limit (0 when opts is nil).
func (o *QueryOptions) limit() int {
	if o == nil {
		return 0
	}
	return o.Limit
}

// getControl derives the pooled execution control for (ctx, opts). It
// returns (nil, nil) when nothing can ever fire — a nil control is the
// unconditioned execution every engine accepts — and (nil, ErrCanceled) when
// the context has already expired, so execution returns promptly without
// scanning.
func getControl(ctx context.Context, opts *QueryOptions) (*query.Control, error) {
	if ctx.Err() != nil {
		return nil, ErrCanceled
	}
	return query.GetControl(ctx.Done(), opts.limit()), nil
}
