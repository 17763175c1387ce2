// Package plan is the one execution wrapper under every baseline index
// (§7.1–7.2: all indexes run on the same column store with the same scan). A
// baseline is a Planner — build a physical order, then map a query to the
// spans that can hold its matches — and Index runs those spans through
// core.ScanSpans, the scan stage Flood's own Run ends in: same pooled
// scanner, same cutover to the morsel engine, same control polling and
// counters. What the planners share beyond that lives here too: the
// rectangle-against-bounds test and the bounded-subtree walk of the tree
// baselines.
package plan

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
)

// Planner is what one baseline contributes: its name, its metadata size,
// the table in its physical order, and the mapping from a query to spans.
type Planner interface {
	Name() string
	// SizeBytes is the index metadata footprint, the stored data excluded.
	SizeBytes() int64
	Table() *colstore.Table
	// Plan appends to dst the spans of Table that can hold rows matching
	// q, in physical order, and returns the extended slice. A span's Mask
	// may be zero only when every one of its rows satisfies every filter of
	// q (see core.Span). q is never Empty and the table never empty.
	Plan(q query.Query, dst []core.Span) []core.Span
}

// Index is a baseline index: a Planner under the shared scan stage. It
// implements query.ControlIndex. Baselines take no mutations, so their
// tombstone mask is nil.
type Index struct {
	p Planner
	t *colstore.Table
}

// New wraps p, enabling on its table the bitmap indexes Flood's tables
// carry, so residual filters on low-cardinality columns are bitmap ANDs for
// every index alike. The table must fit the stage's spans: at most 64
// columns (a residual mask is one word) and MaxInt32 rows.
func New(p Planner) (*Index, error) {
	t := p.Table()
	if t.NumCols() > 64 || t.NumRows() > math.MaxInt32 {
		return nil, fmt.Errorf("baseline %s: table has %d columns and %d rows; max supported is 64 and %d",
			p.Name(), t.NumCols(), t.NumRows(), math.MaxInt32)
	}
	t.EnableBitmapIndexes(core.DefaultBitmapMaxCardinality)
	return &Index{p: p, t: t}, nil
}

// Name implements query.Index.
func (x *Index) Name() string { return x.p.Name() }

// SizeBytes implements query.Index.
func (x *Index) SizeBytes() int64 { return x.p.SizeBytes() }

// Table returns the index's table in its physical order.
func (x *Index) Table() *colstore.Table { return x.t }

// Execute implements query.Index.
func (x *Index) Execute(q query.Query, agg query.Aggregator) query.Stats {
	return x.Run(nil, q, agg, 0)
}

// ExecuteContext implements query.Index: Execute under ctx's cancellation.
// An already-expired context returns without planning or scanning.
func (x *Index) ExecuteContext(ctx context.Context, q query.Query, agg query.Aggregator) (query.Stats, error) {
	if ctx.Err() != nil {
		return query.Stats{}, query.ErrCanceled
	}
	ctl := query.GetControl(ctx.Done(), 0)
	st := x.Run(ctl, q, agg, 0)
	err := ctl.Finish()
	ctl.Release()
	return st, err
}

var spanPool = sync.Pool{New: func() any { return new([]core.Span) }}

// Run implements query.ControlIndex with core.Flood.Run's arguments: plan
// (IndexTime), then the scan stage at the default parallel cutover
// (ScanTime). CellsVisited and ScanRanges both count the planned spans — a
// baseline's pages, leaves or buckets.
func (x *Index) Run(ctl *query.Control, q query.Query, agg query.Aggregator, workers int) query.Stats {
	var st query.Stats
	t0 := time.Now()
	if q.Empty() || x.t.NumRows() == 0 || ctl.Stopped() {
		st.Total = time.Since(t0)
		return st
	}
	buf := spanPool.Get().(*[]core.Span)
	spans := x.p.Plan(q, (*buf)[:0])
	st.CellsVisited = int64(len(spans))
	st.ScanRanges = st.CellsVisited
	t1 := time.Now()
	st.IndexTime = t1.Sub(t0)
	core.ScanSpans(x.t, nil, ctl, q, spans, agg, workers, &st)
	*buf = spans
	spanPool.Put(buf)
	t2 := time.Now()
	st.ScanTime = t2.Sub(t1)
	st.Total = t2.Sub(t0)
	return st
}

// FilterMask is the residual mask naming every filtered dimension of q: the
// mask of a span about which the planner knows nothing more.
func FilterMask(q query.Query) uint64 {
	var m uint64
	for d, r := range q.Ranges {
		if r.Present {
			m |= 1 << uint(d)
		}
	}
	return m
}

// Rel is how a bounding box relates to a query rectangle.
type Rel int

// The three relations.
const (
	Disjoint  Rel = iota // no point of the box can match
	Intersect            // some may: the rows need checking
	Contained            // every point of the box matches
)

// Relation classifies the box [mins, maxs] over dims (table dimensions, in
// the order of mins and maxs) against q. A filter on a dimension outside
// dims rules out Contained: it must be row-checked.
func Relation(q query.Query, dims []int, mins, maxs []int64) Rel {
	rel := Contained
	for d, r := range q.Ranges {
		if !r.Present {
			continue
		}
		i := 0
		for i < len(dims) && dims[i] != d {
			i++
		}
		if i == len(dims) {
			rel = Intersect
			continue
		}
		if maxs[i] < r.Min || mins[i] > r.Max {
			return Disjoint
		}
		if mins[i] < r.Min || maxs[i] > r.Max {
			rel = Intersect
		}
	}
	return rel
}

// Node is a node of a bounded tree over a physically ordered table — the
// shape the k-d tree, hyperoctree and R*-tree share: the tight bounds of the
// node's points over the indexed dims, the physical range holding them, and
// the children partitioning that range (nil for a leaf).
type Node struct {
	Mins, Maxs []int64
	Start, End int32
	Children   []*Node
}

// Spans appends the spans q needs from the subtree: a node inside the
// rectangle whole and exact, an intersecting leaf under mask (the caller's
// FilterMask), nothing of a disjoint node.
func (nd *Node) Spans(q query.Query, dims []int, mask uint64, dst []core.Span) []core.Span {
	switch Relation(q, dims, nd.Mins, nd.Maxs) {
	case Disjoint:
		return dst
	case Contained:
		return append(dst, core.Span{Start: nd.Start, End: nd.End})
	}
	if nd.Children == nil {
		return append(dst, core.Span{Start: nd.Start, End: nd.End, Mask: mask})
	}
	for _, c := range nd.Children {
		dst = c.Spans(q, dims, mask, dst)
	}
	return dst
}

// Tree is the planner of a bounded tree: what the k-d tree, hyperoctree and
// R*-tree are once built. They differ in how Build partitions the rows.
type Tree struct {
	Kind      string // the index's name in reports
	T         *colstore.Table
	Dims      []int // indexed dimensions, in the order of every node's bounds
	Root      *Node
	NumNodes  int
	NodeBytes int64 // metadata footprint of one node
}

// Name implements Planner.
func (x *Tree) Name() string { return x.Kind }

// SizeBytes implements Planner.
func (x *Tree) SizeBytes() int64 { return int64(x.NumNodes) * x.NodeBytes }

// Table implements Planner.
func (x *Tree) Table() *colstore.Table { return x.T }

// Plan implements Planner: the spans of the subtrees q reaches.
func (x *Tree) Plan(q query.Query, dst []core.Span) []core.Span {
	return x.Root.Spans(q, x.Dims, FilterMask(q), dst)
}
