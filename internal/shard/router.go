package shard

import (
	"math"
	"sort"
)

// Router maps split-dimension values to shard indexes and query ranges to
// shard intervals. It is immutable after construction and safe for
// concurrent use. Shard i owns the half-open value interval
// [splits[i-1], splits[i]); the first shard is unbounded below and the
// last unbounded above, so every int64 routes somewhere.
type Router struct {
	dim    int
	splits []int64
}

// NewRouter builds a router over strictly increasing split points on the
// given dimension. An empty split list yields a single-shard router.
func NewRouter(dim int, splits []int64) (*Router, error) {
	if err := validateSplits(splits); err != nil {
		return nil, err
	}
	return &Router{dim: dim, splits: append([]int64(nil), splits...)}, nil
}

// Dim returns the split dimension (a physical column index).
func (r *Router) Dim() int { return r.dim }

// Splits returns the split points; callers must not modify the slice.
func (r *Router) Splits() []int64 { return r.splits }

// NumShards returns the shard count: one more than the split count.
func (r *Router) NumShards() int { return len(r.splits) + 1 }

// Shard returns the shard owning value v: the number of split points <= v.
// Binary search keeps routing O(log k) and allocation-free.
func (r *Router) Shard(v int64) int {
	// sort.Search over "v < splits[i]" finds the first split strictly above
	// v, which is exactly the owning shard's index.
	return sort.Search(len(r.splits), func(i int) bool { return v < r.splits[i] })
}

// ShardRange returns the inclusive shard interval [first, last] overlapping
// the value range [lo, hi]. Callers pass the query's range on the split
// dimension; shards outside the interval cannot contain matching rows and
// are pruned from the fan-out.
func (r *Router) ShardRange(lo, hi int64) (first, last int) {
	return r.Shard(lo), r.Shard(hi)
}

// Bounds returns shard i's inclusive value bounds. The first shard's lower
// bound is math.MinInt64 and the last shard's upper bound math.MaxInt64.
func (r *Router) Bounds(i int) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if i > 0 {
		lo = r.splits[i-1]
	}
	if i < len(r.splits) {
		hi = r.splits[i] - 1
	}
	return lo, hi
}
