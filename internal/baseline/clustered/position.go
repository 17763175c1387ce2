package clustered

import "sort"

// linear is y = slope·x + intercept.
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
// so the root keeps routing larger keys to later leaves.
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

type posLeaf struct {
	model          linear
	minErr, maxErr int32 // bounds of (true - predicted) over the leaf's keys
}

// positionIndex is a two-layer recursive model index (Kraska et al.,
// SIGMOD'18) over a sorted array: LookupAt(at, v) returns the index of the
// first element >= v by predicting a position and then binary searching
// within the leaf's guaranteed error window. It stands in for the B-tree of
// the clustered single-dimensional baseline (§7.2, Appendix A). A linear
// root routes a key to one of L leaves, and each leaf is a linear regression
// over the keys it owns. The index keeps only its models: the sorted values
// stay with the caller, who reaches them through at.
type positionIndex struct {
	root   linear
	leaves []posLeaf
	n      int
}

// trainPosition builds a position index over sorted (ascending), which it
// does not keep. numLeaves is clamped to [1, len(sorted)].
func trainPosition(sorted []int64, numLeaves int) *positionIndex {
	n := len(sorted)
	idx := &positionIndex{n: n}
	if n == 0 {
		idx.root = linear{}
		idx.leaves = []posLeaf{{}}
		return idx
	}
	if numLeaves < 1 {
		numLeaves = 1
	}
	if numLeaves > n {
		numLeaves = n
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i, v := range sorted {
		xs[i] = float64(v)
		ys[i] = float64(i)
	}
	// Root routes keys to leaves through a monotone linear model over
	// normalized positions.
	rootFit := fitMonotone(xs, ys)
	idx.root = linear{slope: rootFit.slope / float64(n), intercept: rootFit.intercept / float64(n)}
	idx.leaves = make([]posLeaf, numLeaves)
	start := 0
	for leaf := 0; leaf < numLeaves; leaf++ {
		end := start
		for end < n && idx.leafFor(sorted[end]) == leaf {
			end++
		}
		if start == end {
			// Empty leaf: predict the boundary position exactly.
			idx.leaves[leaf] = posLeaf{model: linear{0, float64(start)}}
			continue
		}
		lm := fitLinear(xs[start:end], ys[start:end])
		minE, maxE := int32(0), int32(0)
		for i := start; i < end; i++ {
			e := i - clampInt(int(lm.at(xs[i])), 0, n-1)
			if int32(e) < minE {
				minE = int32(e)
			}
			if int32(e) > maxE {
				maxE = int32(e)
			}
		}
		idx.leaves[leaf] = posLeaf{model: lm, minErr: minE, maxErr: maxE}
		start = end
	}
	return idx
}

func (p *positionIndex) leafFor(v int64) int {
	return clampInt(int(p.root.at(float64(v))*float64(len(p.leaves))), 0, len(p.leaves)-1)
}

// LookupAt returns the index of the first element >= v (sort.SearchInt64s
// semantics) of the sorted values the index was trained on, reached through
// at (e.g. a compressed column holding them), in O(log windowSize) after an
// O(1) prediction.
func (p *positionIndex) LookupAt(at func(int) int64, v int64) int {
	if p.n == 0 {
		return 0
	}
	lf := p.leaves[p.leafFor(v)]
	pred := clampInt(int(lf.model.at(float64(v))), 0, p.n-1)
	lo := clampInt(pred+int(lf.minErr), 0, p.n)
	hi := clampInt(pred+int(lf.maxErr)+1, 0, p.n)
	// The error bounds hold for keys the leaf saw at training time; for
	// unseen keys, exponentially widen until the window brackets the
	// answer: keys[lo] < v (or lo == 0) and keys[hi-1] >= v (or hi == n).
	width := 1
	for lo > 0 && at(lo) >= v {
		lo -= width
		width <<= 1
		if lo < 0 {
			lo = 0
		}
	}
	width = 1
	for hi < p.n && at(hi-1) < v {
		hi += width
		width <<= 1
		if hi > p.n {
			hi = p.n
		}
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return at(lo+i) >= v })
}

// SizeBytes reports the model footprint (excluding the indexed keys, which
// belong to the data).
func (p *positionIndex) SizeBytes() int64 {
	return int64(16 + len(p.leaves)*24)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
