package costmodel

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"

	"flood/internal/colstore"
	"flood/internal/query"
	"flood/internal/rmi"
)

// Estimator computes cost-model features for candidate layouts without
// building them, using a flattened data sample (§4.2: "statistics are either
// estimated using a sample of D or computed exactly from the query rectangle
// and layout parameters").
type Estimator struct {
	n      int         // full dataset size
	d      int         // dimensions
	cdfs   []*rmi.CDF  // per-dimension CDFs trained on the sample
	flat   [][]float64 // [dim][i]: flattened sample values in [0, 1]
	order  [][]int32   // [dim]: sample row ids sorted by flat[dim], the windows count walks
	scale  float64     // n / sampleSize
	sample int
}

// NewEstimator draws a row sample from tbl and trains per-dimension CDFs
// (the "flattening" of Algorithm 1 line 8).
func NewEstimator(tbl *colstore.Table, sampleSize int, seed int64) *Estimator {
	n := tbl.NumRows()
	if sampleSize <= 0 || sampleSize > n {
		sampleSize = n
	}
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Perm(n)[:sampleSize]
	e := &Estimator{n: n, d: tbl.NumCols(), sample: sampleSize}
	if sampleSize > 0 {
		e.scale = float64(n) / float64(sampleSize)
	}
	e.cdfs = make([]*rmi.CDF, e.d)
	e.flat = make([][]float64, e.d)
	e.order = make([][]int32, e.d)
	vals := make([]int64, sampleSize)
	for dim := 0; dim < e.d; dim++ {
		col := tbl.Column(dim)
		for i, r := range rows {
			vals[i] = col.Get(r)
		}
		leaves := sampleSize / 32
		e.cdfs[dim] = rmi.TrainCDF(vals, leaves)
		e.flat[dim] = make([]float64, sampleSize)
		e.order[dim] = make([]int32, sampleSize)
		for i, v := range vals {
			e.flat[dim][i] = e.cdfs[dim].At(v)
			e.order[dim][i] = int32(i)
		}
		flat := e.flat[dim]
		slices.SortFunc(e.order[dim], func(a, b int32) int { return cmp.Compare(flat[a], flat[b]) })
	}
	return e
}

// SampleSize returns the number of sampled rows.
func (e *Estimator) SampleSize() int { return e.sample }

// FlatQuery is a query with its ranges mapped through the per-dimension
// CDFs.
type FlatQuery struct {
	Present  []bool
	Lo, Hi   []float64
	Filtered int
}

// Flatten maps q through the estimator's CDFs.
func (e *Estimator) Flatten(q query.Query) FlatQuery {
	fq := FlatQuery{
		Present: make([]bool, e.d),
		Lo:      make([]float64, e.d),
		Hi:      make([]float64, e.d),
	}
	for dim, r := range q.Ranges {
		if !r.Present {
			fq.Hi[dim] = 1
			continue
		}
		fq.Present[dim] = true
		fq.Filtered++
		fq.Lo[dim] = e.cdfs[dim].At(r.Min)
		fq.Hi[dim] = e.cdfs[dim].At(r.Max)
	}
	return fq
}

// Candidate is a layout under optimization: column counts are continuous so
// gradient descent can move them smoothly (§4.2).
type Candidate struct {
	GridDims []int
	Cols     []float64 // >= 1
	SortDim  int
}

// NumCells returns the (continuous) total cell count.
func (c Candidate) NumCells() float64 {
	t := 1.0
	for _, v := range c.Cols {
		t *= math.Max(1, v)
	}
	return t
}

// constraint is one per-row test of an evaluation: a filtered grid dimension
// with its smoothed bounds, or the filtered sort dimension with its exact
// ones (refinement excludes rows outside them from the scan and never spoils
// exactness, so its interior bounds are infinite).
type constraint struct {
	gi             int     // position in Candidate.GridDims; len(GridDims) for the sort dimension
	dim            int     // table dimension
	scanLo, scanHi float64 // a row outside is not scanned
	intLo, intHi   float64 // a scanned row outside is not in an exact sub-range
}

// gridConstraint is the test grid position gi applies to rows under cols
// columns: a column of width 1/c overshoots each range endpoint by 1/(2c) in
// expectation, which keeps the objective differentiable enough for numeric
// gradients.
func gridConstraint(fq FlatQuery, gi, dim int, cols float64) constraint {
	over := 1 / (2 * math.Max(1, cols))
	lo, hi := fq.Lo[dim], fq.Hi[dim]
	return constraint{gi: gi, dim: dim, scanLo: lo - over, scanHi: hi + over, intLo: lo + over, intHi: hi - over}
}

// constraints appends to cs the per-row tests of fq under cand and reports
// whether fq filters a residual dimension (neither grid nor sort), which
// spoils exactness for every row.
func (e *Estimator) constraints(fq FlatQuery, cand Candidate, cs []constraint) ([]constraint, bool) {
	for gi, dim := range cand.GridDims {
		if fq.Present[dim] {
			cs = append(cs, gridConstraint(fq, gi, dim, cand.Cols[gi]))
		}
	}
	if sd := cand.SortDim; sd >= 0 && fq.Present[sd] {
		cs = append(cs, constraint{gi: len(cand.GridDims), dim: sd,
			scanLo: fq.Lo[sd], scanHi: fq.Hi[sd], intLo: math.Inf(-1), intHi: math.Inf(1)})
	}
	for dim := 0; dim < e.d; dim++ {
		if !fq.Present[dim] || dim == cand.SortDim {
			continue
		}
		inGrid := false
		for _, g := range cand.GridDims {
			if g == dim {
				inGrid = true
				break
			}
		}
		if !inGrid {
			return cs, true
		}
	}
	return cs, false
}

// window returns the sample rows whose value in c's dimension lies inside
// c's scan bounds: a binary-searched run of that dimension's sorted order.
func (e *Estimator) window(c *constraint) []int32 {
	ord, vals := e.order[c.dim], e.flat[c.dim]
	lo := sort.Search(len(ord), func(k int) bool { return vals[ord[k]] >= c.scanLo })
	n := sort.Search(len(ord)-lo, func(k int) bool { return vals[ord[lo+k]] > c.scanHi })
	return ord[lo : lo+n]
}

// narrowest returns the smallest of the constraints' windows: the only sample
// rows that can pass all of them.
func (e *Estimator) narrowest(cs []constraint) []int32 {
	var rows []int32
	for i := range cs {
		if w := e.window(&cs[i]); i == 0 || len(w) < len(rows) {
			rows = w
		}
	}
	return rows
}

// count returns how many sample rows pass every constraint's scan bounds and
// how many of those also lie inside every interior. It walks the narrowest
// window only; the counts are integers, so the visiting order cannot change
// them.
func (e *Estimator) count(cs []constraint, hasResidual bool) (ns, exact int) {
	if len(cs) == 0 {
		if hasResidual {
			return e.sample, 0
		}
		return e.sample, e.sample
	}
scan:
	for _, r := range e.narrowest(cs) {
		interior := !hasResidual
		for i := range cs {
			c := &cs[i]
			u := e.flat[c.dim][r]
			if u < c.scanLo || u > c.scanHi {
				continue scan
			}
			if u < c.intLo || u > c.intHi {
				interior = false
			}
		}
		ns++
		if interior {
			exact++
		}
	}
	return ns, exact
}

// features assembles the features of fq under cand from the sample counts;
// total is cand.NumCells(), which callers evaluating a workload compute once.
func (e *Estimator) features(fq FlatQuery, cand Candidate, total float64, ns, exact int) Features {
	f := Features{
		TotalCells:   total,
		DimsFiltered: float64(fq.Filtered),
	}
	f.AvgCellSize = float64(e.n) / f.TotalCells
	if cand.SortDim >= 0 && fq.Present[cand.SortDim] {
		f.SortFiltered = 1
	}
	// Nc: expected number of intersected cells.
	nc := 1.0
	for gi, dim := range cand.GridDims {
		c := math.Max(1, cand.Cols[gi])
		if !fq.Present[dim] {
			nc *= c
			continue
		}
		w := (fq.Hi[dim]-fq.Lo[dim])*c + 1
		if w > c {
			w = c
		}
		nc *= w
	}
	f.Nc = nc
	f.Ns = float64(ns) * e.scale
	if f.Nc > 0 {
		f.AvgVisitedPerCell = f.Ns / f.Nc
	}
	if f.Ns > 0 {
		f.ExactFraction = float64(exact) * e.scale / f.Ns
	}
	return f
}

// Estimate computes the features q would produce under the candidate layout:
// Nc from the query rectangle and column counts, Ns and the exact fraction by
// counting sample rows inside the (smoothed) scan region and its interior.
func (e *Estimator) Estimate(fq FlatQuery, cand Candidate) Features {
	var buf [8]constraint
	cs, hasResidual := e.constraints(fq, cand, buf[:0])
	ns, exact := e.count(cs, hasResidual)
	return e.features(fq, cand, cand.NumCells(), ns, exact)
}

// PredictWorkload returns the model's average predicted query time (ns) for
// the flattened workload under the candidate layout.
func (e *Estimator) PredictWorkload(m *Model, fqs []FlatQuery, cand Candidate) float64 {
	s := Search{e: e, m: m, fqs: fqs}
	return s.Cost(cand)
}

// DimSelectivities returns the average passing fraction per dimension over
// the flattened queries (lower = more selective), mirroring
// workload.DimSelectivities but computed on the estimator's sample.
func (e *Estimator) DimSelectivities(fqs []FlatQuery) []float64 {
	sums := make([]float64, e.d)
	counts := make([]int, e.d)
	for _, fq := range fqs {
		for dim := 0; dim < e.d; dim++ {
			if !fq.Present[dim] {
				continue
			}
			sums[dim] += fq.Hi[dim] - fq.Lo[dim]
			counts[dim]++
		}
	}
	out := make([]float64, e.d)
	for dim := range out {
		if counts[dim] == 0 {
			out[dim] = 1
		} else {
			out[dim] = sums[dim] / float64(counts[dim])
		}
	}
	return out
}
