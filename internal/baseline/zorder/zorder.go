// Package zorder implements the Z-Order Index baseline (§7.2, Appendix A):
// points are ordered by Z-value and grouped into pages; each page stores the
// per-dimension min/max of its points, and a query scans every page between
// the rectangle's smallest and largest Z-value whose min/max metadata
// intersects the query rectangle.
package zorder

import (
	"flood/internal/baseline/plan"
	"flood/internal/baseline/zbase"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
)

// index is a Z-order-sorted table with page MBR metadata.
type index struct {
	b        *zbase.Base
	pageMins [][]int64 // per page, per indexed dim
	pageMaxs [][]int64
}

// Build Z-sorts t over dims (most selective first) with the given page size
// (0 = default).
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	b, err := zbase.Build(t, dims, pageSize)
	if err != nil {
		return nil, err
	}
	x := &index{b: b}
	np := b.NumPages()
	x.pageMins = make([][]int64, np)
	x.pageMaxs = make([][]int64, np)
	for p := 0; p < np; p++ {
		start, end := b.PageRange(p)
		mins := make([]int64, len(dims))
		maxs := make([]int64, len(dims))
		for i, d := range dims {
			col := b.T.Column(d)
			mins[i], maxs[i] = col.Get(start), col.Get(start)
			for r := start + 1; r < end; r++ {
				v := col.Get(r)
				if v < mins[i] {
					mins[i] = v
				}
				if v > maxs[i] {
					maxs[i] = v
				}
			}
		}
		x.pageMins[p], x.pageMaxs[p] = mins, maxs
	}
	return plan.New(x)
}

func (x *index) Name() string { return "ZOrder" }

func (x *index) SizeBytes() int64 {
	return x.b.SizeBytes() + int64(len(x.pageMins))*int64(len(x.b.Dims))*16
}

func (x *index) Table() *colstore.Table { return x.b.T }

// Plan walks the pages between the rectangle's smallest and largest Z-value
// and keeps those whose min/max rectangle intersects the query's; a page
// inside the query rectangle is exact.
func (x *index) Plan(q query.Query, dst []core.Span) []core.Span {
	lo, hi, ok := x.b.QuantizedRect(q)
	if !ok {
		return dst
	}
	mask := plan.FilterMask(q)
	last := x.b.PageFor(x.b.Enc.EncodeParts(hi))
	for p := x.b.FirstPageFor(x.b.Enc.EncodeParts(lo)); p <= last; p++ {
		rel := plan.Relation(q, x.b.Dims, x.pageMins[p], x.pageMaxs[p])
		if rel == plan.Disjoint {
			continue
		}
		sp := core.Span{Start: x.b.PageRows[p], End: x.b.PageRows[p+1], Mask: mask}
		if rel == plan.Contained {
			sp.Mask = 0
		}
		dst = append(dst, sp)
	}
	return dst
}
