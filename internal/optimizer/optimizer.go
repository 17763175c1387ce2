// Package optimizer implements Flood's layout search (§4.2, Algorithm 1):
// sample the dataset and workload, flatten both with per-dimension CDFs,
// iterate over sort-dimension choices, and run a multi-start gradient
// descent over (continuous) per-dimension column counts, minimizing the
// calibrated cost model's predicted average query time. No step requires
// building a layout or running a query, and none reads more of the table than
// the sample.
//
// The descents — one per (sort dimension, restart) — share only read-only
// inputs (the estimator, the model and the flattened queries), so they run as
// one core.RunBatch over the worker pool, each on a worker's own
// costmodel.Search. Their results are reduced in the order a single loop
// would visit them, with the same strict comparison, so the layout and its
// predicted cost do not depend on how many cores ran the search.
package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
	// GDSteps is the number of gradient steps per restart (default 20).
	GDSteps int
	// Seed drives sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.DataSampleSize <= 0 {
		c.DataSampleSize = 2000
	}
	if c.QuerySampleSize <= 0 {
		c.QuerySampleSize = 50
	}
	if c.GDSteps <= 0 {
		c.GDSteps = 20
	}
	return c
}

// restarts lists the initial total-cell budgets of the multi-start descent
// (a stand-in for Scipy's basinhopping).
var restarts = [...]float64{1 << 8, 1 << 12, 1 << 16}

const (
	// maxGridDims caps how many dimensions a candidate grid may use.
	// Rarely filtered dimensions are dropped first — the behaviour §7.5
	// observes on high-dimensional data ("Flood chooses not to include the
	// least frequently filtered dimensions").
	maxGridDims = 10
	// maxSortCandidates caps how many dimensions, most selective first,
	// are tried as the sort dimension.
	maxSortCandidates = 8
)

// maxTotalCells caps the size of a layout over n rows: n/2 cells, and no
// fewer than 1024.
func maxTotalCells(n int) float64 { return math.Max(1024, float64(n)/2) }

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
	cfg = cfg.withDefaults()
	maxCells := maxTotalCells(tbl.NumRows())
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
	if len(candidates) > maxGridDims {
		candidates = candidates[:maxGridDims]
	}
	sortCandidates := filtered
	if len(sortCandidates) > maxSortCandidates {
		sortCandidates = sortCandidates[:maxSortCandidates]
	}

	// Lines 12-21: try each dimension as the sort dimension, from every
	// restart.
	ds := make([]descent, 0, len(sortCandidates)*len(restarts))
	for _, sortDim := range sortCandidates {
		gridDims := make([]int, 0, len(candidates))
		for _, d := range candidates {
			if d != sortDim {
				gridDims = append(gridDims, d)
			}
		}
		gridFiltered := make([]bool, len(gridDims))
		anyFiltered := false
		for i, d := range gridDims {
			gridFiltered[i] = sels[d] < 1
			anyFiltered = anyFiltered || gridFiltered[i]
		}
		for _, budget := range restarts {
			ds = append(ds, descent{cand: costmodel.Candidate{
				GridDims: gridDims,
				Cols:     initialCols(gridDims, gridFiltered, anyFiltered, budget),
				SortDim:  sortDim,
			}})
		}
	}
	// One scratch per goroutine RunBatch can run at once, lent for a task.
	ws := make(chan *descender, runtime.GOMAXPROCS(0))
	for range cap(ws) {
		ws <- &descender{s: est.NewSearch(m, fqs)}
	}
	core.RunBatch(len(ds), func(i int) {
		w := <-ws
		defer func() { ws <- w }()
		w.descend(&ds[i], cfg.GDSteps, maxCells)
	})
	// The cheapest descent wins; a tie goes to the first sort candidate and
	// then the first restart, the order the descents were listed in.
	best := Result{PredictedCost: math.Inf(1)}
	for i := range ds {
		if ds[i].cost < best.PredictedCost {
			best.PredictedCost = ds[i].cost
			best.Layout = finalize(ds[i].cand)
		}
	}
	if math.IsInf(best.PredictedCost, 1) {
		return Result{}, fmt.Errorf("optimizer: search failed to produce a layout")
	}
	return best, nil
}

// descent is one restart of the gradient descent over column counts for a
// fixed dimension ordering: cand starts at the restart's initial columns and
// ends at the cheapest point reached, whose predicted cost is cost.
type descent struct {
	cand costmodel.Candidate
	cost float64
}

// descender is one worker's scratch: a Search over the shared estimator,
// model and flattened queries, and the step's trial columns and gradient.
type descender struct {
	s          *costmodel.Search
	next, grad []float64
}

// descend runs d's descent of at most steps gradient steps on w's scratch,
// holding every point to maxCells cells.
func (w *descender) descend(d *descent, steps int, maxCells float64) {
	cand := d.cand
	n := len(cand.Cols)
	if cap(w.next) < n {
		w.next, w.grad = make([]float64, n), make([]float64, n)
	}
	next := costmodel.Candidate{GridDims: cand.GridDims, Cols: w.next[:n], SortDim: cand.SortDim}
	grad := w.grad[:n]
	clampCells(&cand, maxCells)
	cost := w.s.Cost(cand)
	lr := 0.6
	norm := 0.0
	moved := true // cand changed since grad was computed
	for step := 0; step < steps; step++ {
		if moved {
			// A rejected step leaves cand, and so its gradient, as
			// they were.
			w.s.Gradient(cand, gradientStep, grad)
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
		clampCells(&next, maxCells)
		nextCost := w.s.Cost(next)
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
	// An accepted step swaps the trial's columns with the candidate's, so
	// the cheapest point may be in w's buffer.
	copy(d.cand.Cols, cand.Cols)
	d.cost = cost
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
