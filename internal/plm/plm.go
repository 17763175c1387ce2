// Package plm implements the piecewise linear CDF models the paper builds
// per grid cell to refine physical index ranges along the sort dimension
// (§5.2). The engine does not use them: refinement in internal/core searches
// the sort column's zone map instead, which needs no training and measured
// faster. The package's only caller is internal/bench's Fig. 17, which
// reproduces the paper's comparison of PLM, RMI and binary-search lookups.
//
// A PLM partitions a sorted value list V into slices, each modeled by one
// linear segment. Every segment lower-bounds the true first-occurrence index
// (P(v) <= D(v)) and keeps the average absolute error within a budget δ,
// which the lower-bound property reduces to mean(D(v) - P(v)) <= δ. Slices
// are found with a single greedy pass; segment lookup goes through a static
// cache-optimized B-tree over slice boundary keys. Mispredictions are
// corrected by exponential search, so lookups are exact.
package plm

import "sort"

// DefaultDelta is the average-error budget found to balance size and speed
// in §7.8 (Fig. 17b).
const DefaultDelta = 50

// Segment models one slice: for keys >= Key (up to the next segment's Key),
// P(v) = Base + Slope*(v - Key).
type Segment struct {
	Key   int64
	Base  float64
	Slope float64
}

// Model is a trained piecewise linear model over a sorted array.
type Model struct {
	segs []Segment
	tree *stree
	n    int
}

// Train fits a PLM with average error budget delta over sorted (ascending).
// The greedy pass anchors each segment at a slice's first (value, index)
// pair and keeps the minimum chord slope seen so far, which preserves the
// lower-bound property; when the slice's average error would exceed delta, a
// new slice begins.
func Train(sorted []int64, delta float64) *Model {
	m := &Model{n: len(sorted)}
	if len(sorted) == 0 {
		m.tree = newSTree(nil)
		return m
	}
	if delta < 0 {
		delta = 0
	}
	var (
		anchorV   int64   // v0: first value in current slice
		anchorD   float64 // D(v0)
		slope     float64 // min chord slope so far
		cntM      float64 // Σ multiplicities (elements) in slice, excluding anchor run
		sumMD     float64 // Σ m_i * D(v_i)
		sumMV     float64 // Σ m_i * v_i
		haveSlope bool
	)
	startSeg := func(v int64, d int) {
		anchorV, anchorD = v, float64(d)
		slope, cntM, sumMD, sumMV = 0, 0, 0, 0
		haveSlope = false
	}
	flush := func() {
		m.segs = append(m.segs, Segment{Key: anchorV, Base: anchorD, Slope: slope})
	}
	startSeg(sorted[0], 0)
	i := 0
	for i < m.n {
		v := sorted[i]
		first := i
		for i < m.n && sorted[i] == v {
			i++
		}
		mult := float64(i - first)
		if v == anchorV {
			continue // anchor run: P(v0) = D(v0), error 0
		}
		chord := (float64(first) - anchorD) / float64(v-anchorV)
		newSlope := slope
		if !haveSlope || chord < slope {
			newSlope = chord
		}
		// Average error over slice elements if we admit this value:
		// mean over non-anchor elements of D(v_i) - P(v_i).
		nm := cntM + mult
		nsumMD := sumMD + mult*float64(first)
		nsumMV := sumMV + mult*float64(v)
		errSum := nsumMD - nm*anchorD - newSlope*(nsumMV-nm*float64(anchorV))
		if errSum/nm > delta {
			flush()
			startSeg(v, first)
			continue
		}
		slope, cntM, sumMD, sumMV = newSlope, nm, nsumMD, nsumMV
		haveSlope = true
	}
	flush()
	keys := make([]int64, len(m.segs))
	for i, s := range m.segs {
		keys[i] = s.Key
	}
	m.tree = newSTree(keys)
	return m
}

// Predict returns P(v), a lower bound on the index of the first occurrence
// of v for values present in the training data, clamped to [0, n].
func (m *Model) Predict(v int64) int {
	if m.n == 0 {
		return 0
	}
	si := m.tree.floor(v)
	if si < 0 {
		return 0
	}
	s := m.segs[si]
	p := int(s.Base + s.Slope*float64(v-s.Key))
	if p < 0 {
		return 0
	}
	if p > m.n {
		return m.n
	}
	return p
}

// LowerBound returns the index of the first element of sorted >= v, using the
// model's prediction rectified by exponential search. sorted must be the
// training array.
func (m *Model) LowerBound(sorted []int64, v int64) int {
	return m.LowerBoundAt(len(sorted), func(i int) int64 { return sorted[i] }, v)
}

// LowerBoundAt is LowerBound over values reached through an accessor (e.g. a
// compressed column) instead of a materialized slice. at(i) must return the
// i-th value of the sorted training array.
func (m *Model) LowerBoundAt(n int, at func(int) int64, v int64) int {
	if n == 0 {
		return 0
	}
	pos := m.Predict(v)
	if pos > n {
		pos = n
	}
	// Bracket the answer: grow left while at(lo-1) >= v, right while
	// at(hi) < v.
	lo, hi := pos, pos
	width := 1
	for lo > 0 && at(lo-1) >= v {
		lo -= width
		width <<= 1
		if lo < 0 {
			lo = 0
		}
	}
	width = 1
	for hi < n && at(hi) < v {
		hi += width
		width <<= 1
		if hi > n {
			hi = n
		}
	}
	if hi == lo {
		return lo
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return at(lo+i) >= v })
}

// NumSegments returns the number of linear segments.
func (m *Model) NumSegments() int { return len(m.segs) }

// SizeBytes reports the model footprint: segments plus the lookup tree.
func (m *Model) SizeBytes() int64 {
	return int64(len(m.segs))*24 + m.tree.sizeBytes() + 8
}
