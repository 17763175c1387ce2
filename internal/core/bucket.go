package core

import "math"

// steps is a grid dimension's bucketing: its step points, ascending. A value
// v falls into column bucket(v), the number of step points at or below it, so
// the k-th point (1-based) is the smallest value of column k or beyond.
//
// A build fits the dimension's bucketing function — the flattening CDF's
// ⌊CDF(v)·c⌋ (§5.1) or equal-width columns (§3.1) — buckets the rows with
// it, and keeps only the points where it steps (stepPoints): at a fixed
// column count that monotone step function is exactly its c−1 step points,
// where the model behind it is a thousand leaves. Leading math.MinInt64
// entries mean column 0 (and more) holds no value at all; a table shorter
// than c−1 leaves the top columns unreachable.
type steps []int64

// bucket is the number of step points ≤ v: v's column.
func (s steps) bucket(v int64) int {
	lo, n := 0, len(s)
	for n > 0 {
		half := n / 2
		if s[lo+half] <= v {
			lo, n = lo+half+1, n-half-1
		} else {
			n = half
		}
	}
	return lo
}

// stepPoints derives the step points of a bucketing function onto cols
// columns, which must be monotone non-decreasing in v: for each k in
// 1..cols−1 the smallest v with bucket(v) ≥ k, found by bisection over the
// whole int64 domain — at most 64 evaluations a point. A k that no value
// reaches ends the table. The points are non-decreasing whatever bucket does,
// and at most cols−1, so the table indexes inside the grid even when bucket
// comes from a damaged snapshot.
func stepPoints(bucket func(int64) int, cols int) steps {
	top := min(bucket(math.MaxInt64), cols-1)
	s := make(steps, 0, max(top, 0))
	lo := int64(math.MinInt64)
	for k := 1; k <= top; k++ {
		hi := int64(math.MaxInt64)
		if bucket(lo) >= k {
			hi = lo
		}
		for lo < hi {
			// The midpoint in unsigned arithmetic: hi−lo overflows int64.
			mid := lo + int64((uint64(hi)-uint64(lo))/2)
			if bucket(mid) >= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s = append(s, lo)
	}
	return s
}

// equalWidthBucket divides [min, max] into cols equally spaced columns
// (§3.1), rangeSz being max − min + 1, and returns v's column.
func equalWidthBucket(v, min int64, rangeSz float64, cols int) int {
	if v < min {
		return 0
	}
	// Subtract in the float domain: v - min overflows int64 when an
	// unbounded query endpoint meets a negative minimum, and the wrapped
	// difference would map the largest keys to column 0.
	cf := (float64(v) - float64(min)) / rangeSz * float64(cols)
	if cf >= float64(cols-1) {
		return cols - 1
	}
	if cf <= 0 {
		return 0
	}
	return int(cf)
}
