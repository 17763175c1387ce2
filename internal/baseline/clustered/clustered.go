// Package clustered implements the Clustered Single-Dimensional Index
// baseline (§7.2, Appendix A): the table is sorted by one key dimension
// (typically the workload's most selective) and a learned RMI over that
// column locates filter endpoints. Queries without a filter on the key
// dimension fall back to a full scan.
package clustered

import (
	"fmt"
	"sort"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
	"flood/internal/rmi"
)

// index is a clustered single-dimensional learned index.
type index struct {
	t      *colstore.Table
	keyDim int
	pos    *rmi.PositionIndex
}

// Build sorts a copy of t by keyDim and trains the RMI over it with the
// given leaf count; 0 picks sqrt(n) per Appendix A.
func Build(t *colstore.Table, keyDim, leaves int) (*plan.Index, error) {
	if keyDim < 0 || keyDim >= t.NumCols() {
		return nil, fmt.Errorf("clustered: key dim %d out of range", keyDim)
	}
	n := t.NumRows()
	keys := t.Raw(keyDim)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	sortedKeys := make([]int64, n)
	for r, p := range perm {
		sortedKeys[r] = keys[p]
	}
	if leaves <= 0 {
		leaves = intSqrt(n)
	}
	pos := rmi.TrainPosition(sortedKeys, leaves)
	pos.DropKeys()
	return plan.New(&index{t: t.Reorder(perm), keyDim: keyDim, pos: pos})
}

func intSqrt(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func (x *index) Name() string           { return "Clustered" }
func (x *index) SizeBytes() int64       { return x.pos.SizeBytes() }
func (x *index) Table() *colstore.Table { return x.t }

// Plan locates the key filter's endpoints through the RMI: one span, in
// which the key dimension is exact and drops out of the residual mask.
// Without a filter on the key dimension the span is the whole table.
func (x *index) Plan(q query.Query, dst []core.Span) []core.Span {
	lo, hi := 0, x.t.NumRows()
	mask := plan.FilterMask(q)
	if r := q.Ranges[x.keyDim]; r.Present {
		col := x.t.Column(x.keyDim)
		at := func(i int) int64 { return col.Get(i) }
		if r.Min != query.NegInf {
			lo = x.pos.LookupAt(at, r.Min)
		}
		if r.Max != query.PosInf {
			hi = x.pos.LookupAt(at, r.Max+1)
		}
		mask &^= 1 << uint(x.keyDim)
	}
	return append(dst, core.Span{Start: int32(lo), End: int32(hi), Mask: mask})
}
