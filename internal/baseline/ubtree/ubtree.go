// Package ubtree implements the UB-tree baseline (§7.2, Appendix A): points
// are ordered by Z-value and grouped into pages storing only their minimum
// Z-value. A query walks the pages between the rectangle's extreme Z-values;
// whenever a page starts outside the rectangle it computes the next
// in-rectangle Z-value (BIGMIN) and, if that lies past the page, skips ahead
// to the page containing it. Rows inside a visited page are filtered by the
// scan kernel.
package ubtree

import (
	"flood/internal/baseline/plan"
	"flood/internal/baseline/zbase"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
)

// tree is a UB-tree over a Z-sorted table.
type tree struct{ b *zbase.Base }

// Build Z-sorts t over dims (most selective first) with the given page size
// (0 = default).
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	b, err := zbase.Build(t, dims, pageSize)
	if err != nil {
		return nil, err
	}
	return plan.New(tree{b})
}

func (x tree) Name() string           { return "UBtree" }
func (x tree) SizeBytes() int64       { return x.b.SizeBytes() }
func (x tree) Table() *colstore.Table { return x.b.T }

// Plan keeps every page whose code interval meets the quantized rectangle.
// Page p holds codes from its own minimum up to the next page's (inclusive:
// rows sharing a code can straddle the boundary), so it is needed exactly
// when the smallest in-rectangle code at or above its minimum does not lie
// past the next page's; when it does, that code names the page to resume at.
// The page minimum is all a UB-tree stores, so no page is known exact.
func (x tree) Plan(q query.Query, dst []core.Span) []core.Span {
	b, enc := x.b, x.b.Enc
	lo, hi, ok := b.QuantizedRect(q)
	if !ok {
		return dst
	}
	zlo, zhi := enc.EncodeParts(lo), enc.EncodeParts(hi)
	mask := plan.FilterMask(q)
	last := b.PageFor(zhi)
	for p := b.FirstPageFor(zlo); p <= last; {
		z := b.PageMinZ[p]
		if !enc.InRect(z, lo, hi) {
			if z, ok = enc.BigMin(z, zlo, zhi); !ok {
				break
			}
		}
		if p < last && z > b.PageMinZ[p+1] {
			p = b.FirstPageFor(z)
			continue
		}
		dst = append(dst, core.Span{Start: b.PageRows[p], End: b.PageRows[p+1], Mask: mask})
		p++
	}
	return dst
}
