package core

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"flood/internal/colstore"
)

// steps is a grid dimension's bucketing: its step points, ascending. A value
// v falls into column bucket(v), the number of step points at or below it, so
// the k-th point (1-based) is the smallest value of column k or beyond.
//
// A build cuts a flattened dimension from its value counts (valueCounts.cut):
// each point is the smallest value of its column, repeated where columns are
// empty. Equal-width columns (§3.1), and the flattening CDF an older snapshot
// stored (⌊CDF(v)·c⌋, §5.1), are monotone step functions that become their
// points by bisection (stepPoints). Equal points leave the columns between
// them empty, a table shorter than c−1 leaves the top columns unreachable,
// and leading points at or below the smallest value — math.MinInt64 from a
// CDF — leave column 0 (and more) without a value.
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

// valueCounts is a flattened grid dimension reduced to what cutting it into
// any number of columns needs: how many rows hold each of its distinct
// values.
type valueCounts struct {
	vals   []int64 // the distinct values, ascending
	prefix []int32 // prefix[j] rows hold a value below vals[j]; len(vals)+1 entries
}

// count reduces raw, whose values lie in [lo, hi], to its value counts,
// reusing vc's storage and w's. A column that spans fewer values than a
// quarter of its rows is a histogram over [lo, hi] and sorts nothing; a wider
// one is sorted once, a copy by colstore.RadixSort.
func (vc *valueCounts) count(raw []int64, lo, hi int64, w *buildScratch) {
	vc.vals, vc.prefix = vc.vals[:0], append(vc.prefix[:0], 0)
	if len(raw) == 0 {
		return
	}
	if narrow(lo, hi, len(raw)) {
		hist := grown(&w.terms, int(uint64(hi)-uint64(lo))+1)
		clear(hist)
		for _, v := range raw {
			hist[v-lo]++
		}
		vc.vals, vc.prefix = slices.Grow(vc.vals, len(hist)), slices.Grow(vc.prefix, len(hist)+1)
		for k, c := range hist {
			if c > 0 {
				vc.vals = append(vc.vals, lo+int64(k))
				vc.prefix = append(vc.prefix, vc.prefix[len(vc.prefix)-1]+c)
			}
		}
		return
	}
	keys := append(w.keys[:0], raw...)
	colstore.RadixSort(keys, nil, &w.sort)
	w.keys = keys
	distinct := 1
	for j := 1; j < len(keys); j++ {
		if keys[j] != keys[j-1] {
			distinct++
		}
	}
	vc.vals, vc.prefix = slices.Grow(vc.vals, distinct), slices.Grow(vc.prefix, distinct+1)
	vc.vals = append(vc.vals, keys[0])
	for j := 1; j < len(keys); j++ {
		if keys[j] != keys[j-1] {
			vc.vals = append(vc.vals, keys[j])
			vc.prefix = append(vc.prefix, int32(j))
		}
	}
	vc.prefix = append(vc.prefix, int32(len(raw)))
}

// grown returns (*buf)[:n], reallocating *buf only when it is shorter.
func grown(buf *[]int32, n int) []int32 {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// clone is a copy of vc that shares no storage with it.
func (vc *valueCounts) clone() *valueCounts {
	return &valueCounts{vals: slices.Clone(vc.vals), prefix: slices.Clone(vc.prefix)}
}

// cut divides the values, in order, into cols columns and returns the step
// points: the smallest value of each column after the first, a point
// repeated where the column before it is empty.
//
// It is the equal-count quantile cut that a flattening CDF (§5.1) stands for,
// made exact: column k starts at the value boundary whose count of rows below
// it is nearest k·n/c (the lower one on a tie). A value whose rows span
// several quantiles fills one column and leaves the columns it spans empty,
// as ⌊CDF(v)·c⌋ does, and empty top columns end the table early. Each
// boundary lies within half a value's rows of its quantile, so no column
// holds more than n/c rows plus its largest value's.
func (vc *valueCounts) cut(cols int) steps {
	nv := len(vc.vals)
	if cols <= 1 || nv <= 1 {
		return steps{}
	}
	p := vc.prefix
	n := int(p[nv])
	st := make(steps, 0, cols-1)
	for k := 1; k < cols; k++ {
		target := int32(k * n / cols)
		j := sort.Search(nv, func(i int) bool { return p[i] >= target })
		if j > 0 && target-p[j-1] <= p[j]-target {
			j--
		}
		if j == nv {
			break
		}
		st = append(st, vc.vals[j])
	}
	return st
}

// addCutTerms adds column × stride to every row's cell number, a row's
// column being the number of step points st at or below its value; raw holds
// the dimension's values, all within [lo, hi]. A table over the values'
// offsets from lo — one entry a value for a column narrower than a quarter
// of its rows, else the offsets shifted down to at most 2^16 entries — holds
// the column of each entry's first value, and a row passes the step points
// inside its entry, if any, with a comparison each. *buf is the table's
// storage.
func addCutTerms(cells []int32, raw []int64, lo, hi int64, st steps, stride int32, buf *[]int32) {
	span, shift := uint64(hi)-uint64(lo), 0
	if !narrow(lo, hi, len(raw)) {
		shift = max(bits.Len64(span)-16, 0)
	}
	table := grown(buf, int(span>>shift)+1)
	col := 0
	for e := range table {
		first := int64(uint64(lo) + uint64(e)<<shift)
		for col < len(st) && st[col] <= first {
			col++
		}
		table[e] = int32(col)
	}
	if shift == 0 { // an entry a value: the table is exact
		for i, v := range raw {
			cells[i] += table[uint64(v)-uint64(lo)] * stride
		}
		return
	}
	for i, v := range raw {
		col := int(table[(uint64(v)-uint64(lo))>>shift])
		for col < len(st) && st[col] <= v {
			col++
		}
		cells[i] += int32(col) * stride
	}
}
