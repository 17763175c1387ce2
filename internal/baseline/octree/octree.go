// Package octree implements the Hyperoctree baseline (§7.2, Appendix A):
// space is recursively subdivided into 2^d equal hyperoctants until every
// leaf holds at most pageSize points. Points within a page are stored
// contiguously and pages are ordered by an in-order traversal. Every node
// keeps the per-dimension min/max of its points and its physical index
// range; only non-empty children are materialized, which keeps the structure
// viable at high dimensionality.
package octree

import (
	"fmt"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

// defaultPageSize bounds leaf occupancy.
const defaultPageSize = 1024

// maxDepth caps subdivision on pathological (heavily duplicated) data.
const maxDepth = 48

// Build subdivides t over the given dimensions.
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	x, err := build(t, dims, pageSize)
	if err != nil {
		return nil, err
	}
	return plan.New(x)
}

func build(t *colstore.Table, dims []int, pageSize int) (*plan.Tree, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("octree: no dimensions to index")
	}
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	n := t.NumRows()
	raws := make([][]int64, len(dims))
	for i, d := range dims {
		raws[i] = t.Raw(d)
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	boxLo := make([]int64, len(dims))
	boxHi := make([]int64, len(dims))
	for i := range dims {
		if n > 0 {
			boxLo[i], boxHi[i] = raws[i][0], raws[i][0]
			for _, v := range raws[i][1:] {
				if v < boxLo[i] {
					boxLo[i] = v
				}
				if v > boxHi[i] {
					boxHi[i] = v
				}
			}
		}
	}
	b := &builder{raws: raws, pageSize: pageSize}
	root := b.split(rows, boxLo, boxHi, 0)
	// The DFS order of b.order is the physical layout.
	perm := make([]int, n)
	for i, r := range b.order {
		perm[i] = int(r)
	}
	return &plan.Tree{
		Kind: "Hyperoctree", T: t.Reorder(perm), Dims: append([]int(nil), dims...), Root: root, NumNodes: b.numNodes,
		NodeBytes: int64(len(dims))*16 + 8 + 24, // bounds + range + child slice header
	}, nil
}

type builder struct {
	raws     [][]int64
	pageSize int
	order    []int32
	numNodes int
}

func (b *builder) split(rows []int32, boxLo, boxHi []int64, depth int) *plan.Node {
	b.numNodes++
	nd := &plan.Node{
		Mins:  make([]int64, len(b.raws)),
		Maxs:  make([]int64, len(b.raws)),
		Start: int32(len(b.order)),
	}
	for i := range b.raws {
		nd.Mins[i], nd.Maxs[i] = boxHi[i], boxLo[i]
	}
	for _, r := range rows {
		for i := range b.raws {
			v := b.raws[i][r]
			if v < nd.Mins[i] {
				nd.Mins[i] = v
			}
			if v > nd.Maxs[i] {
				nd.Maxs[i] = v
			}
		}
	}
	degenerate := true
	for i := range b.raws {
		if boxLo[i] < boxHi[i] {
			degenerate = false
			break
		}
	}
	if len(rows) <= b.pageSize || depth >= maxDepth || degenerate {
		b.order = append(b.order, rows...)
		nd.End = int32(len(b.order))
		return nd
	}
	// Partition into hyperoctants around the box midpoint. Children are
	// kept sparsely: only octants holding points are materialized.
	mid := make([]int64, len(b.raws))
	for i := range mid {
		mid[i] = boxLo[i] + (boxHi[i]-boxLo[i])/2
	}
	groups := make(map[uint64][]int32)
	for _, r := range rows {
		var key uint64
		for i := range b.raws {
			if b.raws[i][r] > mid[i] {
				key |= 1 << uint(i)
			}
		}
		groups[key] = append(groups[key], r)
	}
	if len(groups) == 1 {
		// All points share an octant whose box no longer shrinks them
		// apart: stop splitting to guarantee progress.
		b.order = append(b.order, rows...)
		nd.End = int32(len(b.order))
		return nd
	}
	// Deterministic child order: ascending octant key.
	for key := uint64(0); key < uint64(1)<<uint(len(b.raws)); key++ {
		g, okKey := groups[key]
		if !okKey {
			continue
		}
		cLo := make([]int64, len(b.raws))
		cHi := make([]int64, len(b.raws))
		for i := range b.raws {
			if key&(1<<uint(i)) != 0 {
				cLo[i], cHi[i] = mid[i]+1, boxHi[i]
			} else {
				cLo[i], cHi[i] = boxLo[i], mid[i]
			}
		}
		nd.Children = append(nd.Children, b.split(g, cLo, cHi, depth+1))
	}
	nd.End = int32(len(b.order))
	return nd
}
