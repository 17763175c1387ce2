package costmodel

import (
	"fmt"
	"math"
	"math/rand"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
	"flood/internal/rforest"
	"flood/internal/rmi"
)

// Model holds the three weight regressors of Eq. 1. Weights are in
// nanoseconds (per cell for wp/wr, per point for ws).
type Model struct {
	WP, WR, WS *rforest.Forest
}

// PredictTime evaluates Eq. 1 for a query with the given features, in
// nanoseconds. The refinement term drops out when the query does not filter
// the sort dimension (§4.1 item 2).
func (m *Model) PredictTime(f Features) float64 {
	x := f.Vector()
	t := m.WP.Predict(x) * f.Nc
	if f.SortFiltered > 0 {
		t += m.WR.Predict(x) * f.Nc
	}
	t += m.WS.Predict(x) * f.Ns
	if t < 0 {
		t = 0
	}
	return t
}

// CalibrationConfig controls weight-model training (§4.1.1).
type CalibrationConfig struct {
	// NumLayouts is the number of random layouts to execute (default 10,
	// which the paper found sufficient).
	NumLayouts int
	// Seed drives layout randomization and forest training.
	Seed int64
	// Forest overrides the regressor configuration (zero = defaults).
	Forest rforest.Config
}

// Calibrate trains the weight models by generating random layouts over tbl,
// running the workload on each, and regressing the observed per-cell and
// per-point times on the observed statistics. This is a once-per-machine
// cost (§7.6): the resulting model transfers across datasets (Table 3).
func Calibrate(tbl *colstore.Table, queries []query.Query, cfg CalibrationConfig) (*Model, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("costmodel: calibration needs queries")
	}
	if cfg.NumLayouts <= 0 {
		cfg.NumLayouts = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		xp, xr, xs [][]float64
		yp, yr, ys []float64
	)
	// Every random layout flattens the same columns of the same table: fit
	// each column's CDF once, on first use, and hand it to the builds.
	opts := core.Options{FlattenCDFs: make([]*rmi.CDF, tbl.NumCols())}
	for li := 0; li < cfg.NumLayouts; li++ {
		layout := randomLayout(rng, tbl.NumCols(), tbl.NumRows())
		for _, dim := range layout.GridDims {
			if opts.FlattenCDFs[dim] == nil {
				opts.FlattenCDFs[dim] = core.TrainFlattenCDF(tbl, dim, opts)
			}
		}
		idx, err := core.Build(tbl, layout, opts)
		if err != nil {
			return nil, fmt.Errorf("costmodel: building random layout %d: %w", li, err)
		}
		agg := query.NewCount()
		for _, q := range queries {
			agg.Reset()
			st := idx.Execute(q, agg)
			f := Measured(idx, q, st)
			x := f.Vector()
			if st.CellsVisited > 0 {
				xp = append(xp, x)
				yp = append(yp, float64(st.ProjectTime.Nanoseconds())/f.Nc)
			}
			if st.RangesRefined > 0 && st.CellsVisited > 0 {
				xr = append(xr, x)
				yr = append(yr, float64(st.RefineTime.Nanoseconds())/f.Nc)
			}
			if st.Scanned > 0 {
				xs = append(xs, x)
				ys = append(ys, float64(st.ScanTime.Nanoseconds())/f.Ns)
			}
		}
	}
	fcfg := cfg.Forest
	if fcfg.NumTrees == 0 {
		fcfg = rforest.DefaultConfig()
	}
	fcfg.Seed = rng.Int63()
	m := &Model{}
	var err error
	if m.WP, err = rforest.Train(xp, yp, fcfg); err != nil {
		return nil, fmt.Errorf("costmodel: training wp: %w", err)
	}
	fcfg.Seed = rng.Int63()
	if len(xr) == 0 {
		// No refinement samples (workload never filters a sort dim):
		// fall back to the projection model, whose magnitude is similar.
		m.WR = m.WP
	} else if m.WR, err = rforest.Train(xr, yr, fcfg); err != nil {
		return nil, fmt.Errorf("costmodel: training wr: %w", err)
	}
	fcfg.Seed = rng.Int63()
	if m.WS, err = rforest.Train(xs, ys, fcfg); err != nil {
		return nil, fmt.Errorf("costmodel: training ws: %w", err)
	}
	return m, nil
}

// randomLayout draws a random dimension ordering and column counts hitting a
// random total cell budget (§4.1.1).
func randomLayout(rng *rand.Rand, d, n int) core.Layout {
	order := rng.Perm(d)
	sortDim := order[d-1]
	gridDims := order[:d-1]
	maxCells := float64(n)/4 + 2
	targetCells := math.Exp(rng.Float64() * math.Log(maxCells))
	cols := make([]int, len(gridDims))
	// Split log(targetCells) randomly across grid dims.
	weights := make([]float64, len(gridDims))
	var wsum float64
	for i := range weights {
		weights[i] = rng.Float64() + 0.1
		wsum += weights[i]
	}
	logT := math.Log(targetCells)
	for i := range cols {
		cols[i] = int(math.Exp(logT*weights[i]/wsum) + 0.5)
		if cols[i] < 1 {
			cols[i] = 1
		}
	}
	if len(gridDims) == 0 {
		gridDims, cols = nil, nil
	}
	return core.Layout{GridDims: gridDims, GridCols: cols, SortDim: sortDim, Flatten: true}
}
