package flood

import "context"

// Hooks and shorthands only the tests use.

// SetCrashPoint installs fn to run at the named stages of a checkpoint
// ("rotated", "old-closed", "snapshot"). Fault-injection tests panic from it
// to simulate a crash between any two durability steps; pass nil to clear.
// No effect on an in-memory index.
func (a *AdaptiveIndex) SetCrashPoint(fn func(stage string)) {
	if a.dur != nil {
		a.dur.crashPoint = fn
	}
}

// Select is SelectContext without a deadline or options.
func (s *Schema) Select(idx Index, q Query, cols ...string) (*Rows, Stats) {
	r, st, _ := s.SelectContext(context.Background(), idx, q, nil, cols...)
	return r, st
}

// SelectOr is SelectOrContext without a deadline or options.
func (s *Schema) SelectOr(idx Index, queries []Query, cols ...string) (*Rows, Stats) {
	r, st, _ := s.SelectOrContext(context.Background(), idx, queries, nil, cols...)
	return r, st
}

// SelectContext is SelectColumns over one query, with the projection named.
func (s *Schema) SelectContext(ctx context.Context, idx Index, q Query, opts *QueryOptions, cols ...string) (*Rows, Stats, error) {
	r, st, err := surfaceOf(idx, s).SelectContext(ctx, q, opts, cols...)
	return s.typed(r), st, err
}

// SelectOrContext is SelectColumns with the projection named.
func (s *Schema) SelectOrContext(ctx context.Context, idx Index, queries []Query, opts *QueryOptions, cols ...string) (*Rows, Stats, error) {
	r, st, err := surfaceOf(idx, s).selectOr(ctx, queries, opts, projection{names: cols})
	return s.typed(r), st, err
}

// baselines lists every baseline kind in the paper's order.
func baselines() []BaselineKind {
	return []BaselineKind{FullScan, Clustered, GridFile, ZOrder, UBTree, Hyperoctree, KDTree, RStarTree}
}
