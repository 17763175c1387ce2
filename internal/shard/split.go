// Package shard partitions a table across independent Flood indexes by
// range on one dimension. Split points are fitted from a learned CDF over a
// sample of the split column, so shards stay balanced under skewed data; a
// Router maps values and query ranges to shard indexes, and a checksummed
// Manifest persists the partitioning so a durable sharded store can be
// reopened. The root package's ShardedIndex builds on these pieces; this
// package holds only the pure partitioning machinery so it stays testable
// without an index in sight.
package shard

import (
	"fmt"
	"math"
	"sort"

	"flood/internal/query"
	"flood/internal/rmi"
)

// maxSplitSample caps how many values the CDF is trained on. Splits only
// need coarse quantiles; 1<<16 points bound fitting cost on huge tables
// while keeping quantile error far below one shard's width.
const maxSplitSample = 1 << 16

// splitLeaves is the leaf count of the CDF trained for split fitting —
// enough resolution for up to a few hundred shards.
const splitLeaves = 1024

// FitSplits fits k-way split points on values using a learned CDF: a
// monotone piecewise-linear CDF is trained on a sample, then inverted at
// the equal-mass quantiles i/k so each shard receives roughly the same row
// count even when the value distribution is heavily skewed. The returned
// splits are strictly increasing and define k' <= k shards (duplicate
// quantiles collapse when the column has too few distinct values): shard i
// holds values in [splits[i-1], splits[i]), with the first shard unbounded
// below and the last unbounded above.
func FitSplits(values []int64, k int) []int64 {
	if k <= 1 || len(values) == 0 {
		return nil
	}
	sample := sampleValues(values, maxSplitSample)
	lo, hi := sample[0], sample[0]
	for _, v := range sample {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return nil // degenerate column: one shard
	}
	cdf := rmi.TrainCDF(sample, splitLeaves)
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	splits := make([]int64, 0, k-1)
	for i := 1; i < k; i++ {
		p := float64(i) / float64(k)
		s := invertCDF(cdf, lo, hi, p)
		// Model-error correction: the piecewise-linear CDF can misplace a
		// quantile on pathologically dense regions. If the split's empirical
		// rank in the sample is off by more than a quarter of a shard's
		// mass, snap it to the sample's exact quantile — the learned inverse
		// stays primary, the snap bounds worst-case imbalance.
		rank := float64(sort.Search(len(sorted), func(j int) bool { return sorted[j] >= s })) / float64(len(sorted))
		if math.Abs(rank-p) > 0.25/float64(k) {
			s = sorted[int(p*float64(len(sorted)))]
		}
		if len(splits) > 0 && s <= splits[len(splits)-1] {
			continue // duplicate quantile: collapse the empty shard
		}
		if s <= lo {
			continue // split below the data range would make an empty shard
		}
		splits = append(splits, s)
	}
	return splits
}

// invertCDF finds the smallest v in [lo, hi] with cdf.At(v) >= p by binary
// search; the CDF is monotone so the search is well defined.
func invertCDF(cdf *rmi.CDF, lo, hi int64, p float64) int64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cdf.At(mid) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sampleValues returns at most max values drawn at a fixed stride — a
// deterministic systematic sample, adequate for quantile fitting and free
// of RNG state.
func sampleValues(values []int64, max int) []int64 {
	if len(values) <= max {
		return values
	}
	stride := (len(values) + max - 1) / max
	out := make([]int64, 0, max)
	for i := 0; i < len(values); i += stride {
		out = append(out, values[i])
	}
	return out
}

// ChooseDim picks the split dimension for a workload: the dimension
// filtered by the most training queries, ties broken toward the lower
// index. Splitting on the hottest dimension maximizes how often a query's
// predicate prunes shards. Returns 0 when the workload is empty.
func ChooseDim(queries []query.Query, numDims int) int {
	if numDims <= 0 {
		return 0
	}
	counts := make([]int, numDims)
	for _, q := range queries {
		for d, r := range q.Ranges {
			if r.Present && d < numDims {
				counts[d]++
			}
		}
	}
	best := 0
	for d, c := range counts {
		if c > counts[best] {
			best = d
		}
	}
	return best
}

// Partition assigns each row of the split column to its shard and returns
// the per-shard row index lists, in row order. The lists are dense
// permutations of [0, len(col)) and drive the per-shard table gather.
func Partition(col []int64, r *Router) [][]int {
	parts := make([][]int, r.NumShards())
	// Pre-size by an exact counting pass: one extra scan of an int64 slice
	// is cheaper than re-growing k slices through append.
	counts := make([]int, r.NumShards())
	for _, v := range col {
		counts[r.Shard(v)]++
	}
	for i := range parts {
		parts[i] = make([]int, 0, counts[i])
	}
	for row, v := range col {
		s := r.Shard(v)
		parts[s] = append(parts[s], row)
	}
	return parts
}

// validateSplits checks that splits are strictly increasing — the Router and
// Manifest invariant.
func validateSplits(splits []int64) error {
	if !sort.SliceIsSorted(splits, func(i, j int) bool { return splits[i] < splits[j] }) {
		return fmt.Errorf("shard: split points not strictly increasing: %v", splits)
	}
	for i := 1; i < len(splits); i++ {
		if splits[i] == splits[i-1] {
			return fmt.Errorf("shard: duplicate split point %d", splits[i])
		}
	}
	return nil
}
