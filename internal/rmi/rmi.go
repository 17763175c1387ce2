// Package rmi implements Recursive Model Indexes (Kraska et al., SIGMOD'18)
// as used by Flood: monotone per-dimension CDF models — the cost model's
// flattening of its sample (§5.1), the sharded store's split points, and the
// flattening an older index snapshot stored, which a load turns into step
// points; a build cuts its grid from value counts instead — and position
// indexes with error bounds that implement the learned clustered
// single-dimensional baseline (§7.2, Appendix A).
//
// Models are two-layer: a linear root routes a key to one of L leaves, and
// each leaf is a linear regression over the keys it owns. For CDF models the
// leaves are slope-clamped and range-clamped so the model is monotone
// non-decreasing — the property §6 requires for partitioning points into
// columns.
package rmi

import (
	"slices"
	"sort"

	"flood/internal/colstore"
)

type linear struct {
	slope, intercept float64
}

func (l linear) at(v float64) float64 { return l.slope*v + l.intercept }

// fitLinear least-squares fits y = a*x + b over the given points. A
// degenerate x-range yields a flat line through the mean y.
func fitLinear(xs, ys []float64) linear {
	n := float64(len(xs))
	if len(xs) == 0 {
		return linear{}
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linear{slope: 0, intercept: sy / n}
	}
	a := (n*sxy - sx*sy) / den
	b := (sy - a*sx) / n
	return linear{slope: a, intercept: b}
}

// fitMonotone fits a linear model but clamps the slope to be non-negative,
// preserving monotonicity for CDF use.
func fitMonotone(xs, ys []float64) linear {
	l := fitLinear(xs, ys)
	if l.slope < 0 {
		var sy float64
		for _, y := range ys {
			sy += y
		}
		return linear{slope: 0, intercept: sy / float64(len(ys))}
	}
	return l
}

type cdfLeaf struct {
	model  linear
	lo, hi float64 // clamp range: the true CDF span of this leaf
}

// CDF is a monotone model of a single attribute's cumulative distribution.
// At(v) approximates P(X <= v) in [0, 1].
type CDF struct {
	root   linear
	leaves []cdfLeaf
	minV   int64
	maxV   int64
}

// TrainCDF fits a CDF model to values, which need not be sorted and are not
// modified: the model is fitted to a sorted copy, ordered by radix
// (colstore.RadixSort), and that copy and the sort's second buffer are the
// only allocations that grow with len(values). numLeaves controls model
// capacity; it is clamped to [1, len(values)]. Root and leaves are each
// fitted in one walk of the sorted copy over the empirical CDF points
// (v_i, (i+1)/n), the upper rank making At(max) ~ 1.
func TrainCDF(values []int64, numLeaves int) *CDF {
	sorted := slices.Clone(values)
	colstore.RadixSort(sorted, nil, new(colstore.SortScratch))
	if len(sorted) == 0 {
		return &CDF{leaves: []cdfLeaf{{model: linear{}, lo: 0, hi: 1}}}
	}
	if numLeaves < 1 {
		numLeaves = 1
	}
	if numLeaves > len(sorted) {
		numLeaves = len(sorted)
	}
	n := len(sorted)
	m := &CDF{
		root:   fitCDFPoints(sorted, 0, n),
		leaves: make([]cdfLeaf, numLeaves),
		minV:   sorted[0],
		maxV:   sorted[n-1],
	}
	// The root is monotone and the input sorted, so each leaf owns one run
	// of it, and the run's end is found by bisection.
	start := 0
	prevHi := 0.0
	for leaf := 0; leaf < numLeaves; leaf++ {
		end := start + sort.Search(n-start, func(i int) bool { return m.leafFor(sorted[start+i]) > leaf })
		if start == end {
			// Empty leaf: constant at the boundary CDF value.
			m.leaves[leaf] = cdfLeaf{model: linear{0, prevHi}, lo: prevHi, hi: prevHi}
			continue
		}
		// Clamp to [prevHi, hi]: the true CDF span this leaf is
		// responsible for. Monotone leaves with non-overlapping clamp
		// ranges keep the whole model monotone.
		hi := float64(end) / float64(n)
		m.leaves[leaf] = cdfLeaf{model: fitCDFPoints(sorted, start, end), lo: prevHi, hi: hi}
		prevHi = hi
		start = end
	}
	return m
}

// fitCDFPoints is fitMonotone over the empirical CDF points of
// sorted[start:end], x = sorted[i] and y = (i+1)/len(sorted), without
// materialising them. The sums accumulate in index order, exactly as
// fitLinear's do, so the fit is the one fitMonotone returns bit for bit.
func fitCDFPoints(sorted []int64, start, end int) linear {
	total := float64(len(sorted))
	var sx, sy, sxx, sxy float64
	for i := start; i < end; i++ {
		x, y := float64(sorted[i]), float64(i+1)/total
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(end - start)
	den := n*sxx - sx*sx
	if den == 0 {
		return linear{slope: 0, intercept: sy / n}
	}
	a := (n*sxy - sx*sy) / den
	if a < 0 {
		return linear{slope: 0, intercept: sy / n}
	}
	return linear{slope: a, intercept: (sy - a*sx) / n}
}

func (m *CDF) leafFor(v int64) int {
	p := m.root.at(float64(v))
	// Clamp in the float domain before converting: a far-out-of-domain v
	// (e.g. an unbounded query endpoint) times the leaf count can exceed
	// the int64 range, and the overflowing conversion would saturate
	// *negative*, routing +Inf-like keys to leaf 0 and breaking the
	// model's monotonicity.
	pf := p * float64(len(m.leaves))
	if pf >= float64(len(m.leaves)-1) {
		return len(m.leaves) - 1
	}
	if pf <= 0 {
		return 0
	}
	return int(pf)
}

// At evaluates the model: an approximation of the fraction of points <= v,
// clamped to [0, 1] and monotone non-decreasing in v.
func (m *CDF) At(v int64) float64 {
	lf := m.leaves[m.leafFor(v)]
	p := lf.model.at(float64(v))
	if p < lf.lo {
		p = lf.lo
	}
	if p > lf.hi {
		p = lf.hi
	}
	return p
}

// Bucket maps v into one of n equi-CDF buckets: ⌊CDF(v)·n⌋ clamped to
// [0, n-1] (§5.1).
func (m *CDF) Bucket(v int64, n int) int {
	return min(max(int(m.At(v)*float64(n)), 0), n-1)
}
