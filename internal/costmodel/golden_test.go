package costmodel_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/dataset"
	"flood/internal/optimizer"
	"flood/internal/query"
	"flood/internal/workload"
)

// TestFindOptimalLayoutMatchesReferenceSearch holds the optimizer's search —
// windowed estimates, cached rows, reused gradients and scratch — to the
// layout and the predicted-cost bits of Algorithm 1 written out plainly over
// the straight-line oracle.
func TestFindOptimalLayoutMatchesReferenceSearch(t *testing.T) {
	m := costmodel.SyntheticModel(t)
	for i, name := range dataset.Names() {
		name, seed := name, int64(200+10*i)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ds := dataset.ByName(name, 20000, seed)
			queries := workload.Standard(ds, 60, seed+1)
			cfg := optimizer.Config{
				DataSampleSize: 2000, QuerySampleSize: 20, Restarts: []float64{1 << 8, 1 << 12, 1 << 16},
				GDSteps: 6, MaxTotalCells: 10000, MaxGridDims: 10, MaxSortCandidates: 8, Seed: seed + 2,
			}
			got, err := optimizer.FindOptimalLayout(ds.Table, queries, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantLayout, wantCost := referenceSearch(ds.Table, queries, m, cfg)
			if got.Layout.String() != wantLayout.String() {
				t.Errorf("layout %v, reference search %v", got.Layout, wantLayout)
			}
			if math.Float64bits(got.PredictedCost) != math.Float64bits(wantCost) {
				t.Errorf("predicted cost %v (%#x), reference search %v (%#x)",
					got.PredictedCost, math.Float64bits(got.PredictedCost), wantCost, math.Float64bits(wantCost))
			}
		})
	}
}

// referenceSearch is the layout search as first written, kept as the oracle:
// every evaluation a full pass over the sample through the reference
// estimator, every gradient recomputed, fresh column copies throughout. cfg
// must have every field set.
func referenceSearch(tbl *colstore.Table, queries []query.Query, m *costmodel.Model, cfg optimizer.Config) (core.Layout, float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	est := costmodel.NewEstimator(tbl, cfg.DataSampleSize, rng.Int63())
	qs := queries
	if len(queries) > cfg.QuerySampleSize {
		idx := rng.Perm(len(queries))[:cfg.QuerySampleSize]
		sort.Ints(idx)
		qs = make([]query.Query, len(idx))
		for i, j := range idx {
			qs[i] = queries[j]
		}
	}
	fqs := make([]costmodel.FlatQuery, len(qs))
	for i, q := range qs {
		fqs[i] = est.Flatten(q)
	}
	sels := est.DimSelectivities(fqs)
	dims := make([]int, len(sels))
	for i := range dims {
		dims[i] = i
	}
	sort.SliceStable(dims, func(a, b int) bool { return sels[dims[a]] < sels[dims[b]] })
	var filtered []int
	for _, d := range dims {
		if sels[d] < 0.999 {
			filtered = append(filtered, d)
		}
	}
	if len(filtered) == 0 {
		filtered = dims
	}
	candidates, sortCandidates := filtered, filtered
	if len(candidates) > cfg.MaxGridDims {
		candidates = candidates[:cfg.MaxGridDims]
	}
	if len(sortCandidates) > cfg.MaxSortCandidates {
		sortCandidates = sortCandidates[:cfg.MaxSortCandidates]
	}

	clamp := func(cols []float64) {
		total := 1.0
		for _, v := range cols {
			total *= math.Max(1, v)
		}
		if total <= cfg.MaxTotalCells {
			return
		}
		shrink := math.Pow(total/cfg.MaxTotalCells, 1/float64(len(cols)))
		for i := range cols {
			cols[i] = math.Max(1, cols[i]/shrink)
		}
	}
	bestCost := math.Inf(1)
	var best core.Layout
	for _, sortDim := range sortCandidates {
		var gridDims []int
		for _, d := range candidates {
			if d != sortDim {
				gridDims = append(gridDims, d)
			}
		}
		nf := 0
		for _, d := range gridDims {
			if sels[d] < 1 {
				nf++
			}
		}
		for _, budget := range cfg.Restarts {
			cand := costmodel.Candidate{GridDims: gridDims, Cols: make([]float64, len(gridDims)), SortDim: sortDim}
			for i, d := range gridDims {
				cand.Cols[i] = 1
				if nf == 0 {
					cand.Cols[i] = math.Max(1, math.Pow(budget, 1/float64(len(gridDims))))
				} else if sels[d] < 1 {
					cand.Cols[i] = math.Max(1, math.Pow(budget, 1/float64(nf)))
				}
			}
			clamp(cand.Cols)
			cost := est.PredictWorkloadReference(m, fqs, cand)
			lr := 0.6
			for step := 0; step < cfg.GDSteps; step++ {
				grad := est.GradientReference(m, fqs, cand)
				norm := 0.0
				for _, g := range grad {
					norm += g * g
				}
				norm = math.Sqrt(norm)
				if norm < 1e-12 {
					break
				}
				next := cand
				next.Cols = append([]float64(nil), cand.Cols...)
				for i := range next.Cols {
					next.Cols[i] = math.Exp(math.Log(next.Cols[i]) - lr*grad[i]/norm)
					if next.Cols[i] < 1 {
						next.Cols[i] = 1
					}
				}
				clamp(next.Cols)
				if nextCost := est.PredictWorkloadReference(m, fqs, next); nextCost < cost {
					cand, cost = next, nextCost
				} else if lr *= 0.5; lr < 0.02 {
					break
				}
			}
			if cost < bestCost {
				bestCost = cost
				best = core.Layout{SortDim: sortDim, Flatten: true}
				for i, d := range gridDims {
					if c := int(cand.Cols[i] + 0.5); c > 1 {
						best.GridDims = append(best.GridDims, d)
						best.GridCols = append(best.GridCols, c)
					}
				}
			}
		}
	}
	return best, bestCost
}
