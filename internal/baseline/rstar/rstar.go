// Package rstar implements the R*-tree baseline (§7.2). The paper used a
// bulk-loaded read-optimized R*-tree from libspatialindex; this
// implementation uses Sort-Tile-Recursive (STR) bulk loading — the standard
// read-optimized packing — producing the same query path: descend nodes
// whose minimum bounding rectangles intersect the query.
package rstar

import (
	"fmt"
	"math"
	"sort"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
)

// defaultPageSize bounds leaf occupancy; defaultFanout bounds internal nodes.
const (
	defaultPageSize = 1024
	defaultFanout   = 16
)

// Build packs t over dims using STR tiling.
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	x, err := build(t, dims, pageSize)
	if err != nil {
		return nil, err
	}
	return plan.New(x)
}

func build(t *colstore.Table, dims []int, pageSize int) (*plan.Tree, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("rstar: no dimensions to index")
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
	b := &builder{raws: raws, pageSize: pageSize}
	var leaves []*plan.Node
	b.tile(rows, 0, &leaves)
	perm := make([]int, n)
	for i, r := range b.order {
		perm[i] = int(r)
	}
	idx := &plan.Tree{
		Kind: "RStar", T: t.Reorder(perm), Dims: append([]int(nil), dims...), NumNodes: len(leaves),
		NodeBytes: int64(len(dims))*16 + 8 + 24, // bounds + range + child slice header
	}
	// Pack leaves upward into fanout-wide internal levels.
	level := leaves
	for len(level) > 1 {
		var up []*plan.Node
		for i := 0; i < len(level); i += defaultFanout {
			j := i + defaultFanout
			if j > len(level) {
				j = len(level)
			}
			parent := &plan.Node{
				Mins:     make([]int64, len(dims)),
				Maxs:     make([]int64, len(dims)),
				Children: level[i:j:j],
				Start:    level[i].Start,
				End:      level[j-1].End,
			}
			copy(parent.Mins, level[i].Mins)
			copy(parent.Maxs, level[i].Maxs)
			for _, c := range level[i+1 : j] {
				for k := range dims {
					if c.Mins[k] < parent.Mins[k] {
						parent.Mins[k] = c.Mins[k]
					}
					if c.Maxs[k] > parent.Maxs[k] {
						parent.Maxs[k] = c.Maxs[k]
					}
				}
			}
			up = append(up, parent)
			idx.NumNodes++
		}
		level = up
	}
	if len(level) == 1 {
		idx.Root = level[0]
	} else {
		idx.Root = &plan.Node{Mins: make([]int64, len(dims)), Maxs: make([]int64, len(dims))}
	}
	return idx, nil
}

type builder struct {
	raws     [][]int64
	pageSize int
	order    []int32
}

// tile recursively applies STR: sort by the current dimension, cut into
// slabs sized so that the final leaves hold ~pageSize points, recurse on the
// next dimension; the last dimension emits leaves directly.
func (b *builder) tile(rows []int32, dim int, leaves *[]*plan.Node) {
	if len(rows) == 0 {
		return
	}
	if dim == len(b.raws)-1 || len(rows) <= b.pageSize {
		sort.Slice(rows, func(a, c int) bool { return b.raws[dim][rows[a]] < b.raws[dim][rows[c]] })
		for s := 0; s < len(rows); s += b.pageSize {
			e := s + b.pageSize
			if e > len(rows) {
				e = len(rows)
			}
			*leaves = append(*leaves, b.leaf(rows[s:e]))
		}
		return
	}
	sort.Slice(rows, func(a, c int) bool { return b.raws[dim][rows[a]] < b.raws[dim][rows[c]] })
	pages := (len(rows) + b.pageSize - 1) / b.pageSize
	remaining := len(b.raws) - dim
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(rows) + slabs - 1) / slabs
	for s := 0; s < len(rows); s += slabSize {
		e := s + slabSize
		if e > len(rows) {
			e = len(rows)
		}
		b.tile(rows[s:e], dim+1, leaves)
	}
}

func (b *builder) leaf(rows []int32) *plan.Node {
	nd := &plan.Node{
		Mins:  make([]int64, len(b.raws)),
		Maxs:  make([]int64, len(b.raws)),
		Start: int32(len(b.order)),
	}
	for i := range b.raws {
		nd.Mins[i], nd.Maxs[i] = b.raws[i][rows[0]], b.raws[i][rows[0]]
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
	b.order = append(b.order, rows...)
	nd.End = int32(len(b.order))
	return nd
}
