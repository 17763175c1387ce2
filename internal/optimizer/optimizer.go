// Package optimizer implements Flood's layout search (§4.2, Algorithm 1):
// sample the dataset and workload, flatten both with per-dimension CDFs,
// iterate over sort-dimension choices, and run a multi-start gradient
// descent over (continuous) per-dimension column counts, minimizing the
// calibrated cost model's predicted average query time. No step requires
// building a layout or running a query.
package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/query"
)

// Config controls the search.
type Config struct {
	// DataSampleSize bounds the row sample (default 2000; §7.7 shows
	// 0.01%–1% samples suffice).
	DataSampleSize int
	// QuerySampleSize bounds the workload sample (default 50; §7.7).
	QuerySampleSize int
	// Restarts lists initial total-cell budgets for the multi-start
	// descent (stand-in for Scipy basinhopping). Default {2^8, 2^12, 2^16}.
	Restarts []float64
	// GDSteps is the number of gradient steps per restart (default 20).
	GDSteps int
	// MaxTotalCells caps layout size (default n/2, min 1024).
	MaxTotalCells float64
	// MaxGridDims caps how many dimensions a candidate grid may use
	// (default 10). Rarely filtered dimensions are dropped first — the
	// behaviour §7.5 observes on high-dimensional data ("Flood chooses
	// not to include the least frequently filtered dimensions").
	MaxGridDims int
	// MaxSortCandidates caps how many dimensions are tried as the sort
	// dimension (default 8, most selective first).
	MaxSortCandidates int
	// Seed drives sampling.
	Seed int64
}

func (c Config) withDefaults(n int) Config {
	if c.DataSampleSize <= 0 {
		c.DataSampleSize = 2000
	}
	if c.QuerySampleSize <= 0 {
		c.QuerySampleSize = 50
	}
	if len(c.Restarts) == 0 {
		c.Restarts = []float64{1 << 8, 1 << 12, 1 << 16}
	}
	if c.GDSteps <= 0 {
		c.GDSteps = 20
	}
	if c.MaxTotalCells <= 0 {
		c.MaxTotalCells = math.Max(1024, float64(n)/2)
	}
	if c.MaxGridDims <= 0 {
		c.MaxGridDims = 10
	}
	if c.MaxSortCandidates <= 0 {
		c.MaxSortCandidates = 8
	}
	return c
}

// Result is the outcome of a layout search.
type Result struct {
	Layout        core.Layout
	PredictedCost float64 // model-predicted average query time (ns)
}

// FindOptimalLayout runs Algorithm 1 and returns the best layout found.
func FindOptimalLayout(tbl *colstore.Table, queries []query.Query, m *costmodel.Model, cfg Config) (Result, error) {
	if len(queries) == 0 {
		return Result{}, fmt.Errorf("optimizer: need a sample workload")
	}
	if m == nil {
		return Result{}, fmt.Errorf("optimizer: need a calibrated cost model")
	}
	n := tbl.NumRows()
	cfg = cfg.withDefaults(n)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Algorithm 1 lines 4-8: sample and flatten.
	est := costmodel.NewEstimator(tbl, cfg.DataSampleSize, rng.Int63())
	qs := sampleQueries(queries, cfg.QuerySampleSize, rng)
	fqs := make([]costmodel.FlatQuery, len(qs))
	for i, q := range qs {
		fqs[i] = est.Flatten(q)
	}

	// Line 9: dimensions ordered by decreasing average selectivity
	// (most selective first). On high-dimensional data, restrict the
	// search to the most selective filtered dimensions: unfiltered
	// dimensions cannot prune and only slow the descent (§7.5).
	sels := est.DimSelectivities(fqs)
	dims := orderBySelectivity(sels)
	filtered := dims[:0:0]
	for _, d := range dims {
		if sels[d] < 0.999 {
			filtered = append(filtered, d)
		}
	}
	if len(filtered) == 0 {
		filtered = dims
	}
	candidates := filtered
	if len(candidates) > cfg.MaxGridDims {
		candidates = candidates[:cfg.MaxGridDims]
	}
	sortCandidates := filtered
	if len(sortCandidates) > cfg.MaxSortCandidates {
		sortCandidates = sortCandidates[:cfg.MaxSortCandidates]
	}

	search := est.NewSearch(m, fqs)
	best := Result{PredictedCost: math.Inf(1)}
	// Lines 12-21: try each dimension as the sort dimension.
	for _, sortDim := range sortCandidates {
		gridDims := make([]int, 0, len(candidates))
		for _, d := range candidates {
			if d != sortDim {
				gridDims = append(gridDims, d)
			}
		}
		cand, cost := descend(search, gridDims, sortDim, sels, cfg)
		if cost < best.PredictedCost {
			best.PredictedCost = cost
			best.Layout = finalize(cand)
		}
	}
	if math.IsInf(best.PredictedCost, 1) {
		return Result{}, fmt.Errorf("optimizer: search failed to produce a layout")
	}
	return best, nil
}

// descend runs the multi-start gradient descent over column counts for a
// fixed dimension ordering and returns the cheapest candidate.
func descend(s *costmodel.Search, gridDims []int, sortDim int, sels []float64, cfg Config) (costmodel.Candidate, float64) {
	filtered := make([]bool, len(gridDims))
	anyFiltered := false
	for i, d := range gridDims {
		filtered[i] = sels[d] < 1
		anyFiltered = anyFiltered || filtered[i]
	}
	bestCost := math.Inf(1)
	bestCand := costmodel.Candidate{GridDims: gridDims, SortDim: sortDim}
	// The step's trial point and the gradient live in scratch shared by
	// every restart; an accepted step swaps the trial's columns with the
	// candidate's.
	next := costmodel.Candidate{GridDims: gridDims, Cols: make([]float64, len(gridDims)), SortDim: sortDim}
	grad := make([]float64, len(gridDims))
	for _, budget := range cfg.Restarts {
		cand := costmodel.Candidate{
			GridDims: gridDims,
			Cols:     initialCols(gridDims, filtered, anyFiltered, budget),
			SortDim:  sortDim,
		}
		clampCells(&cand, cfg.MaxTotalCells)
		cost := s.Cost(cand)
		lr := 0.6
		norm := 0.0
		moved := true // cand changed since grad was computed
		for step := 0; step < cfg.GDSteps; step++ {
			if moved {
				// A rejected step leaves cand, and so its
				// gradient, as they were.
				s.Gradient(cand, gradientStep, grad)
				norm = 0.0
				for _, g := range grad {
					norm += g * g
				}
				norm = math.Sqrt(norm)
				moved = false
			}
			if norm < 1e-12 {
				break
			}
			for i, c := range cand.Cols {
				// Move in log-space so steps are relative.
				next.Cols[i] = math.Exp(math.Log(c) - lr*grad[i]/norm)
				if next.Cols[i] < 1 {
					next.Cols[i] = 1
				}
			}
			clampCells(&next, cfg.MaxTotalCells)
			nextCost := s.Cost(next)
			if nextCost < cost {
				cand.Cols, next.Cols = next.Cols, cand.Cols
				cost, moved = nextCost, true
			} else {
				lr *= 0.5
				if lr < 0.02 {
					break
				}
			}
		}
		if cost < bestCost {
			bestCost = cost
			bestCand.Cols = append(bestCand.Cols[:0], cand.Cols...)
		}
	}
	return bestCand, bestCost
}

// gradientStep is the log-space step of the numeric gradient of the
// predicted cost with respect to log(cols).
const gradientStep = 0.25

// initialCols spreads the cell budget evenly (in log space) over the
// filtered grid dimensions; never-filtered dimensions start at one column.
func initialCols(gridDims []int, filtered []bool, anyFiltered bool, budget float64) []float64 {
	cols := make([]float64, len(gridDims))
	nf := 0
	for _, f := range filtered {
		if f {
			nf++
		}
	}
	for i := range cols {
		cols[i] = 1
		if filtered[i] && anyFiltered {
			cols[i] = math.Max(1, math.Pow(budget, 1/float64(nf)))
		} else if !anyFiltered {
			cols[i] = math.Max(1, math.Pow(budget, 1/float64(len(cols))))
		}
	}
	return cols
}

// clampCells rescales columns uniformly when the total exceeds the cap.
func clampCells(cand *costmodel.Candidate, maxCells float64) {
	total := cand.NumCells()
	if total <= maxCells {
		return
	}
	shrink := math.Pow(total/maxCells, 1/float64(len(cand.Cols)))
	for i := range cand.Cols {
		cand.Cols[i] = math.Max(1, cand.Cols[i]/shrink)
	}
}

// finalize rounds a candidate into a concrete layout, dropping grid
// dimensions that ended at a single column (they carry no pruning power).
func finalize(cand costmodel.Candidate) core.Layout {
	l := core.Layout{SortDim: cand.SortDim, Flatten: true}
	for i, d := range cand.GridDims {
		c := int(cand.Cols[i] + 0.5)
		if c <= 1 {
			continue
		}
		l.GridDims = append(l.GridDims, d)
		l.GridCols = append(l.GridCols, c)
	}
	return l
}

func sampleQueries(queries []query.Query, k int, rng *rand.Rand) []query.Query {
	if len(queries) <= k {
		return queries
	}
	idx := rng.Perm(len(queries))[:k]
	sort.Ints(idx)
	out := make([]query.Query, k)
	for i, j := range idx {
		out[i] = queries[j]
	}
	return out
}

func orderBySelectivity(sels []float64) []int {
	dims := make([]int, len(sels))
	for i := range dims {
		dims[i] = i
	}
	sort.SliceStable(dims, func(a, b int) bool { return sels[dims[a]] < sels[dims[b]] })
	return dims
}

// SimpleGridLayout builds the Fig. 11 "Simple Grid" ablation baseline: all d
// dimensions form the grid (no sort dimension, no flattening), with column
// counts proportional to each dimension's selectivity share of a fixed cell
// budget.
func SimpleGridLayout(tbl *colstore.Table, queries []query.Query, targetCells float64, seed int64) core.Layout {
	est := costmodel.NewEstimator(tbl, 2000, seed)
	fqs := make([]costmodel.FlatQuery, len(queries))
	for i, q := range queries {
		fqs[i] = est.Flatten(q)
	}
	sels := est.DimSelectivities(fqs)
	dims := orderBySelectivity(sels)
	l := core.Layout{SortDim: -1, Flatten: false}
	// Selectivity share: more selective dimensions earn more columns.
	inv := make([]float64, 0, len(dims))
	var total float64
	for _, d := range dims {
		w := 1 / math.Max(sels[d], 1e-4)
		inv = append(inv, w)
		total += math.Log1p(w)
	}
	logT := math.Log(math.Max(targetCells, 1))
	for i, d := range dims {
		share := math.Log1p(inv[i]) / total
		c := int(math.Exp(logT*share) + 0.5)
		if c < 1 {
			c = 1
		}
		l.GridDims = append(l.GridDims, d)
		l.GridCols = append(l.GridCols, c)
	}
	return l
}

// AblationVariant derives the Fig. 11 intermediate layouts from a learned
// layout: "+Sort Dim" moves the learned sort dimension back into effect on a
// simple grid; "+Flattening" additionally flattens; "+Learning" is the
// learned layout itself.
func AblationVariant(learned core.Layout, flatten, sortDim bool) core.Layout {
	v := learned
	v.Flatten = flatten
	if !sortDim {
		// Fold the sort dimension into the grid with a modest column
		// count so the variant still indexes it.
		if v.SortDim >= 0 {
			v.GridDims = append(append([]int(nil), v.GridDims...), v.SortDim)
			v.GridCols = append(append([]int(nil), v.GridCols...), 8)
			v.SortDim = -1
		}
	}
	return v
}
