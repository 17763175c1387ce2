// Package kdtree implements the k-d tree baseline (§7.2, Appendix A): space
// is recursively partitioned at the median value along each dimension, with
// dimensions cycled round-robin in order of decreasing selectivity, until
// leaves fall below the page size. A dimension in which all remaining points
// share one value is dropped from further partitioning. Pages are laid out
// by in-order traversal; every node records its split, bounds, and physical
// index range.
package kdtree

import (
	"fmt"
	"sort"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

// defaultPageSize bounds leaf occupancy.
const defaultPageSize = 1024

// node is a tree node: the shared bounds, range and children, plus the split
// that produced the two children.
type node struct {
	plan.Node
	splitDim    int // table dimension; -1 for leaves
	splitVal    int64
	left, right *node
}

// Build partitions t over dims (most selective first).
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	x, _, err := build(t, dims, pageSize)
	if err != nil {
		return nil, err
	}
	return plan.New(x)
}

// build returns the tree and, for the invariant tests, its root with the
// split each node was cut at.
func build(t *colstore.Table, dims []int, pageSize int) (*plan.Tree, *node, error) {
	if len(dims) == 0 {
		return nil, nil, fmt.Errorf("kdtree: no dimensions to index")
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
	b := &builder{raws: raws, dims: dims, pageSize: pageSize}
	root := b.split(rows, 0)
	perm := make([]int, n)
	for i, r := range b.order {
		perm[i] = int(r)
	}
	return &plan.Tree{
		Kind: "KDTree", T: t.Reorder(perm), Dims: append([]int(nil), dims...), Root: &root.Node, NumNodes: b.numNodes,
		NodeBytes: int64(len(dims))*16 + 16 + 8 + 16, // bounds + split + range + child ptrs
	}, root, nil
}

type builder struct {
	raws     [][]int64
	dims     []int
	pageSize int
	order    []int32
	numNodes int
}

func (b *builder) split(rows []int32, next int) *node {
	b.numNodes++
	nd := &node{splitDim: -1}
	nd.Start = int32(len(b.order))
	nd.Mins = make([]int64, len(b.raws))
	nd.Maxs = make([]int64, len(b.raws))
	if len(rows) == 0 {
		nd.End = nd.Start
		return nd
	}
	for i := range b.raws {
		nd.Mins[i], nd.Maxs[i] = b.raws[i][rows[0]], b.raws[i][rows[0]]
		for _, r := range rows[1:] {
			v := b.raws[i][r]
			if v < nd.Mins[i] {
				nd.Mins[i] = v
			}
			if v > nd.Maxs[i] {
				nd.Maxs[i] = v
			}
		}
	}
	if len(rows) <= b.pageSize {
		b.order = append(b.order, rows...)
		nd.End = int32(len(b.order))
		return nd
	}
	// Round-robin over indexed dims, skipping constant ones.
	li := -1
	for probe := 0; probe < len(b.raws); probe++ {
		cand := (next + probe) % len(b.raws)
		if nd.Mins[cand] < nd.Maxs[cand] {
			li = cand
			break
		}
	}
	if li < 0 {
		// Every dimension is constant: cannot partition further.
		b.order = append(b.order, rows...)
		nd.End = int32(len(b.order))
		return nd
	}
	sort.Slice(rows, func(a, c int) bool { return b.raws[li][rows[a]] < b.raws[li][rows[c]] })
	m := len(rows) / 2
	// Move the split point off a run of duplicates so both halves are
	// non-empty in value space.
	for m < len(rows) && b.raws[li][rows[m]] == b.raws[li][rows[m-1]] {
		m++
	}
	if m == len(rows) {
		m = len(rows) / 2
		for m > 0 && b.raws[li][rows[m]] == b.raws[li][rows[m-1]] {
			m--
		}
		if m == 0 {
			b.order = append(b.order, rows...)
			nd.End = int32(len(b.order))
			return nd
		}
	}
	nd.splitDim = b.dims[li]
	nd.splitVal = b.raws[li][rows[m]]
	nd.left = b.split(rows[:m], next+1)
	nd.right = b.split(rows[m:], next+1)
	nd.Children = []*plan.Node{&nd.left.Node, &nd.right.Node}
	nd.End = int32(len(b.order))
	return nd
}
