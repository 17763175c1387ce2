package costmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/query"
	"flood/internal/rforest"
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
}

// Sample is one timed (layout, query) execution, in the format of the
// repository benchmark's calibration.json: the feature vector of
// Features.Vector and the per-unit weights Eq. 1 regresses, in nanoseconds
// per cell (WP, WR) and per scanned point (WS). A nil weight means the
// execution gave no sample for that forest.
type Sample struct {
	X  []float64 `json:"x"`
	WP *float64  `json:"wp"`
	WR *float64  `json:"wr"`
	WS *float64  `json:"ws"`
}

// Train fits the three weight forests to samples. Forest i of WP, WR, WS
// uses rforest.DefaultConfig with seed+i, so the same samples and seed give
// the same model bit for bit; the forests share nothing, so they train side
// by side. With no refinement samples (a workload that never filters a sort
// dimension) WR is WP, whose magnitude is similar.
//
//api:keep the paper-comparison test trains the repository benchmark's frozen model through it from calibration.json
func Train(samples []Sample, seed int64) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("costmodel: no calibration samples")
	}
	m := &Model{}
	forests := [3]struct {
		name string
		dst  **rforest.Forest
		w    func(Sample) *float64
	}{
		{"wp", &m.WP, func(s Sample) *float64 { return s.WP }},
		{"wr", &m.WR, func(s Sample) *float64 { return s.WR }},
		{"ws", &m.WS, func(s Sample) *float64 { return s.WS }},
	}
	var errs [3]error
	var wg sync.WaitGroup
	for i, ft := range forests {
		var x [][]float64
		var y []float64
		for _, s := range samples {
			if w := ft.w(s); w != nil {
				x, y = append(x, s.X), append(y, *w)
			}
		}
		if ft.name == "wr" && len(x) == 0 {
			continue
		}
		cfg := rforest.DefaultConfig()
		cfg.Seed = seed + int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if *ft.dst, err = rforest.Train(x, y, cfg); err != nil {
				errs[i] = fmt.Errorf("costmodel: training %s: %w", ft.name, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	if m.WR == nil {
		m.WR = m.WP
	}
	return m, nil
}

// Calibrate trains the weight models by generating random layouts over tbl,
// running the workload on each, and regressing the observed per-cell and
// per-point times on the observed statistics. This is a once-per-machine
// cost (§7.6): the resulting model transfers across datasets (Table 3).
func Calibrate(tbl *colstore.Table, queries []query.Query, cfg CalibrationConfig) (*Model, error) {
	m, _, err := calibrate(tbl, queries, cfg)
	return m, err
}

// calibrate is Calibrate, also returning the samples it trained on.
func calibrate(tbl *colstore.Table, queries []query.Query, cfg CalibrationConfig) (*Model, []Sample, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("costmodel: calibration needs queries")
	}
	if cfg.NumLayouts <= 0 {
		cfg.NumLayouts = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var samples []Sample
	// Every random layout reads the same table: decode it once, and let the
	// source hand each column's flattening from the first layout that grids
	// it to the rest.
	src := core.NewSource(tbl, core.Options{})
	for li := 0; li < cfg.NumLayouts; li++ {
		idx, err := src.Build(randomLayout(rng, tbl.NumCols(), tbl.NumRows()))
		if err != nil {
			return nil, nil, fmt.Errorf("costmodel: building random layout %d: %w", li, err)
		}
		agg := query.NewCount()
		for _, q := range queries {
			agg.Reset()
			st := idx.Execute(q, agg)
			f := Measured(idx, q, st)
			s := Sample{X: f.Vector()}
			if st.CellsVisited > 0 {
				s.WP = ptr(float64(st.ProjectTime.Nanoseconds()) / f.Nc)
				if st.RangesRefined > 0 {
					s.WR = ptr(float64(st.RefineTime.Nanoseconds()) / f.Nc)
				}
			}
			if st.Scanned > 0 {
				s.WS = ptr(float64(st.ScanTime.Nanoseconds()) / f.Ns)
			}
			samples = append(samples, s)
		}
	}
	// All of the timed executions are over by now.
	m, err := Train(samples, cfg.Seed)
	return m, samples, err
}

func ptr(v float64) *float64 { return &v }

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
