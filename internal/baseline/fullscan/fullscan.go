// Package fullscan implements the Full Scan baseline (§7.2): every point is
// visited, but only the columns present in the query filter are accessed.
package fullscan

import (
	"flood/internal/baseline/plan"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
)

// scan plans the whole table for every query.
type scan struct{ t *colstore.Table }

// New returns a full-scan "index" over t's rows in their given order. The
// index holds a view of t — the same columns, not copied — so the bitmap
// indexes it enables are its own and the caller's table is left as it was.
func New(t *colstore.Table) (*plan.Index, error) {
	view := *t
	return plan.New(scan{&view})
}

func (s scan) Name() string           { return "FullScan" }
func (s scan) SizeBytes() int64       { return 0 } // a full scan keeps no metadata
func (s scan) Table() *colstore.Table { return s.t }

func (s scan) Plan(q query.Query, dst []core.Span) []core.Span {
	return append(dst, core.Span{End: int32(s.t.NumRows()), Mask: plan.FilterMask(q)})
}
