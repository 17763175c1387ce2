// Package gridfile implements the Grid File baseline (Nievergelt et al.,
// §7.2, Appendix A). The d-dimensional space is divided into blocks by
// per-dimension linear scales; multiple adjacent blocks form a bucket whose
// points are stored contiguously and unsorted. The grid is built
// incrementally: when a bucket overflows the page size it is split either
// along an existing block boundary crossing it or, failing that, by adding a
// new boundary that bisects it along a round-robin dimension. Unlike Flood,
// the grid does not adapt to a query workload, and the directory can grow
// superlinearly on skewed data (§2) — Build enforces a directory budget and
// fails beyond it, mirroring the paper's construction timeouts.
package gridfile

import (
	"fmt"
	"sort"

	"flood/internal/baseline/plan"
	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
)

// defaultPageSize bounds bucket occupancy.
const defaultPageSize = 1024

// maxBlocks caps directory growth (the paper aborted Grid File construction
// past one hour; we abort past this directory size instead).
const maxBlocks = 1 << 22

// file is a built grid file.
type file struct {
	t      *colstore.Table
	dims   []int
	scales [][]int64 // per local dim: sorted split values (block boundary b: values > scales[b-1], <= handled via sort.Search)
	dir    []int32   // block -> bucket id, row-major over per-dim block counts
	counts []int     // blocks per dim = len(scales[i])+1
	// bucket -> physical range after loading.
	bucketStart []int32
}

// Build inserts every row incrementally and then loads bucket contents
// contiguously.
func Build(t *colstore.Table, dims []int, pageSize int) (*plan.Index, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("gridfile: no dimensions to index")
	}
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	n := t.NumRows()
	raws := make([][]int64, len(dims))
	for i, d := range dims {
		raws[i] = t.Raw(d)
	}
	b := &fileBuilder{
		raws:     raws,
		pageSize: pageSize,
		scales:   make([][]int64, len(dims)),
		counts:   make([]int, len(dims)),
		dir:      []int32{0},
		buckets:  [][]int32{nil},
	}
	for i := range b.counts {
		b.counts[i] = 1
	}
	for r := 0; r < n; r++ {
		if err := b.insert(int32(r)); err != nil {
			return nil, err
		}
	}
	// Load: concatenate buckets into physical order.
	idx := &file{
		dims:   append([]int(nil), dims...),
		scales: b.scales,
		dir:    b.dir,
		counts: b.counts,
	}
	perm := make([]int, 0, n)
	idx.bucketStart = make([]int32, len(b.buckets)+1)
	for bi, rows := range b.buckets {
		idx.bucketStart[bi] = int32(len(perm))
		for _, r := range rows {
			perm = append(perm, int(r))
		}
	}
	idx.bucketStart[len(b.buckets)] = int32(len(perm))
	idx.t = t.Reorder(perm)
	return plan.New(idx)
}

type fileBuilder struct {
	raws     [][]int64
	pageSize int
	scales   [][]int64
	counts   []int
	dir      []int32
	buckets  [][]int32
	rrDim    int // round-robin split dimension
}

func (b *fileBuilder) numBlocks() int {
	n := 1
	for _, c := range b.counts {
		n *= c
	}
	return n
}

// blockCoord returns the block index of value v along local dim i.
func (b *fileBuilder) blockCoord(i int, v int64) int {
	// Block k holds values in (scales[k-1], scales[k]]; the last block is
	// open above.
	return sort.Search(len(b.scales[i]), func(j int) bool { return b.scales[i][j] >= v })
}

func (b *fileBuilder) blockID(coords []int) int {
	id := 0
	for i, c := range coords {
		id = id*b.counts[i] + c
	}
	return id
}

func (b *fileBuilder) insert(row int32) error {
	coords := make([]int, len(b.raws))
	for i := range b.raws {
		coords[i] = b.blockCoord(i, b.raws[i][row])
	}
	bu := b.dir[b.blockID(coords)]
	b.buckets[bu] = append(b.buckets[bu], row)
	for len(b.buckets[bu]) > b.pageSize {
		grew, err := b.splitBucket(bu)
		if err != nil {
			return err
		}
		if !grew {
			break // cannot split further (all points identical)
		}
	}
	return nil
}

// splitBucket divides bucket bu. It returns false when the bucket cannot be
// split (all its points coincide in every dimension).
func (b *fileBuilder) splitBucket(bu int32) (bool, error) {
	region := b.bucketRegion(bu)
	// Case 1: the bucket spans more than one block along some dimension —
	// split along an existing boundary.
	for i := range b.raws {
		if region.lo[i] < region.hi[i] {
			mid := (region.lo[i] + region.hi[i]) / 2
			b.reassign(bu, region, i, mid)
			return true, nil
		}
	}
	// Case 2: single block — add a new grid boundary bisecting the
	// bucket's points along the round-robin dimension.
	for probe := 0; probe < len(b.raws); probe++ {
		dim := (b.rrDim + probe) % len(b.raws)
		splitVal, ok := b.chooseSplitValue(bu, dim)
		if !ok {
			continue
		}
		b.rrDim = (dim + 1) % len(b.raws)
		if err := b.addBoundary(dim, splitVal); err != nil {
			return false, err
		}
		region = b.bucketRegion(bu)
		if region.lo[dim] < region.hi[dim] {
			b.reassign(bu, region, dim, region.lo[dim])
			return true, nil
		}
		return true, nil
	}
	return false, nil
}

// chooseSplitValue picks the median point value along dim inside bucket bu,
// returning false when all values coincide.
func (b *fileBuilder) chooseSplitValue(bu int32, dim int) (int64, bool) {
	rows := b.buckets[bu]
	vals := make([]int64, len(rows))
	for i, r := range rows {
		vals[i] = b.raws[dim][r]
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if vals[0] == vals[len(vals)-1] {
		return 0, false
	}
	m := vals[len(vals)/2]
	if m == vals[len(vals)-1] {
		// Boundary semantics are (lo, m]: ensure the upper half is
		// non-empty by stepping below the max run.
		i := len(vals) / 2
		for i > 0 && vals[i] == m {
			i--
		}
		m = vals[i]
	}
	return m, true
}

type region struct {
	lo, hi []int // block coordinate ranges per dim (inclusive)
}

// bucketRegion computes the bounding block-coordinate region of the blocks
// mapped to bucket bu.
func (b *fileBuilder) bucketRegion(bu int32) region {
	rg := region{lo: make([]int, len(b.counts)), hi: make([]int, len(b.counts))}
	for i := range rg.lo {
		rg.lo[i] = b.counts[i]
		rg.hi[i] = -1
	}
	coords := make([]int, len(b.counts))
	for id, owner := range b.dir {
		if owner != bu {
			continue
		}
		rem := id
		for i := len(b.counts) - 1; i >= 0; i-- {
			coords[i] = rem % b.counts[i]
			rem /= b.counts[i]
		}
		for i := range coords {
			if coords[i] < rg.lo[i] {
				rg.lo[i] = coords[i]
			}
			if coords[i] > rg.hi[i] {
				rg.hi[i] = coords[i]
			}
		}
	}
	return rg
}

// reassign splits bucket bu: blocks of its region with coordinate > mid
// along dim move to a new bucket, and points are redistributed by value.
func (b *fileBuilder) reassign(bu int32, rg region, dim int, mid int) {
	nb := int32(len(b.buckets))
	b.buckets = append(b.buckets, nil)
	coords := make([]int, len(b.counts))
	for id, owner := range b.dir {
		if owner != bu {
			continue
		}
		rem := id
		for i := len(b.counts) - 1; i >= 0; i-- {
			coords[i] = rem % b.counts[i]
			rem /= b.counts[i]
		}
		if coords[dim] > mid {
			b.dir[id] = nb
		}
	}
	// Redistribute points: recompute each row's block coordinate along
	// dim and route by the directory.
	rows := b.buckets[bu]
	b.buckets[bu] = rows[:0:0]
	for _, r := range rows {
		c := b.blockCoord(dim, b.raws[dim][r])
		if c > mid {
			b.buckets[nb] = append(b.buckets[nb], r)
		} else {
			b.buckets[bu] = append(b.buckets[bu], r)
		}
	}
}

// addBoundary inserts a new split value into dim's linear scale, doubling
// the directory along that dimension.
func (b *fileBuilder) addBoundary(dim int, v int64) error {
	pos := sort.Search(len(b.scales[dim]), func(j int) bool { return b.scales[dim][j] >= v })
	if pos < len(b.scales[dim]) && b.scales[dim][pos] == v {
		return nil // boundary already exists
	}
	if b.numBlocks()/b.counts[dim]*(b.counts[dim]+1) > maxBlocks {
		return fmt.Errorf("gridfile: directory exceeded %d blocks (heavily skewed data)", maxBlocks)
	}
	b.scales[dim] = append(b.scales[dim], 0)
	copy(b.scales[dim][pos+1:], b.scales[dim][pos:])
	b.scales[dim][pos] = v

	oldCounts := append([]int(nil), b.counts...)
	b.counts[dim]++
	newDir := make([]int32, b.numBlocks())
	coords := make([]int, len(b.counts))
	for id := range newDir {
		rem := id
		for i := len(b.counts) - 1; i >= 0; i-- {
			coords[i] = rem % b.counts[i]
			rem /= b.counts[i]
		}
		// Map back to the old directory: coordinates above the new
		// boundary shift down by one.
		oc := coords[dim]
		if oc > pos {
			oc--
		}
		oldID := 0
		for i := range coords {
			c := coords[i]
			if i == dim {
				c = oc
			}
			oldID = oldID*oldCounts[i] + c
		}
		newDir[id] = b.dir[oldID]
	}
	b.dir = newDir
	return nil
}

func (x *file) Name() string { return "GridFile" }

func (x *file) SizeBytes() int64 {
	s := int64(len(x.dir))*4 + int64(len(x.bucketStart))*4
	for _, sc := range x.scales {
		s += int64(len(sc)) * 8
	}
	return s
}

func (x *file) Table() *colstore.Table { return x.t }

// Plan finds all blocks intersecting the query rectangle, dedupes their
// buckets, and spans each bucket whole (points in a bucket are unsorted, so
// every row of it must be checked).
func (x *file) Plan(q query.Query, dst []core.Span) []core.Span {
	lo := make([]int, len(x.dims))
	hi := make([]int, len(x.dims))
	for i, d := range x.dims {
		r := q.Ranges[d]
		lo[i], hi[i] = 0, x.counts[i]-1
		if r.Present {
			if r.Min != query.NegInf {
				lo[i] = sort.Search(len(x.scales[i]), func(j int) bool { return x.scales[i][j] >= r.Min })
			}
			if r.Max != query.PosInf {
				hi[i] = sort.Search(len(x.scales[i]), func(j int) bool { return x.scales[i][j] >= r.Max })
			}
		}
	}
	seen := make(map[int32]bool)
	var order []int32
	coords := append([]int(nil), lo...)
	for {
		id := 0
		for i, c := range coords {
			id = id*x.counts[i] + c
		}
		if bu := x.dir[id]; !seen[bu] {
			seen[bu] = true
			order = append(order, bu)
		}
		i := len(coords) - 1
		for ; i >= 0; i-- {
			coords[i]++
			if coords[i] <= hi[i] {
				break
			}
			coords[i] = lo[i]
		}
		if i < 0 {
			break
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	mask := plan.FilterMask(q)
	for _, bu := range order {
		dst = append(dst, core.Span{Start: x.bucketStart[bu], End: x.bucketStart[bu+1], Mask: mask})
	}
	return dst
}
