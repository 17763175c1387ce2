package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	_ "embed"

	flood "flood"
	"flood/datagen"
	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/rforest"
)

// calibrationJSON is the committed output of -capture-calibration: the
// samples one live costmodel.Calibrate run regressed on. Training the weight
// forests from this file instead of from wall-clock timings taken at
// start-up is what makes every layout in the benchmark repeat exactly.
//
//go:embed calibration.json
var calibrationJSON []byte

// calibrationSample is one (layout, query) execution: the feature vector of
// costmodel.Features.Vector and the three per-unit weights Eq. 1 regresses.
// A nil weight means that execution gave no sample for that forest.
type calibrationSample struct {
	X  []float64 `json:"x"`
	WP *float64  `json:"wp"`
	WR *float64  `json:"wr"`
	WS *float64  `json:"ws"`
}

type calibrationFile struct {
	Note     string              `json:"note"`
	Features []string            `json:"features"`
	Samples  []calibrationSample `json:"samples"`
}

// frozenModelSeed fixes the bootstrap and feature sampling of the three
// forests; with the committed samples it determines the model completely.
const frozenModelSeed = 20240611

// frozenModel trains the cost model every workload passes as
// Options.CostModel.
func frozenModel() (*flood.CostModel, error) {
	var cf calibrationFile
	if err := json.Unmarshal(calibrationJSON, &cf); err != nil {
		return nil, fmt.Errorf("calibration.json: %w", err)
	}
	var xp, xr, xs [][]float64
	var yp, yr, ys []float64
	for _, s := range cf.Samples {
		if s.WP != nil {
			xp, yp = append(xp, s.X), append(yp, *s.WP)
		}
		if s.WR != nil {
			xr, yr = append(xr, s.X), append(yr, *s.WR)
		}
		if s.WS != nil {
			xs, ys = append(xs, s.X), append(ys, *s.WS)
		}
	}
	m := &flood.CostModel{}
	cfg := rforest.DefaultConfig()
	for i, f := range []struct {
		name   string
		forest **rforest.Forest
		x      [][]float64
		y      []float64
	}{{"wp", &m.WP, xp, yp}, {"wr", &m.WR, xr, yr}, {"ws", &m.WS, xs, ys}} {
		cfg.Seed = frozenModelSeed + int64(i)
		var err error
		if *f.forest, err = rforest.Train(f.x, f.y, cfg); err != nil {
			return nil, fmt.Errorf("training %s: %w", f.name, err)
		}
	}
	return m, nil
}

// randomLayout mirrors the unexported generator costmodel.Calibrate draws
// its calibration layouts from (§4.1.1): a random dimension order and column
// counts hitting a log-uniform cell budget.
func randomLayout(rng *rand.Rand, d, n int) flood.Layout {
	order := rng.Perm(d)
	gridDims := order[:d-1]
	logT := rng.Float64() * math.Log(float64(n)/4+2)
	weights := make([]float64, len(gridDims))
	var wsum float64
	for i := range weights {
		weights[i] = rng.Float64() + 0.1
		wsum += weights[i]
	}
	cols := make([]int, len(gridDims))
	for i := range cols {
		cols[i] = max(1, int(math.Exp(logT*weights[i]/wsum)+0.5))
	}
	return flood.Layout{GridDims: gridDims, GridCols: cols, SortDim: order[d-1], Flatten: true}
}

// captureCalibration regenerates calibration.json beside this source file by
// running Calibrate's measurement loop — core.Build on random layouts,
// Execute, costmodel.Measured — on two datasets. The file changes every time
// (the targets are wall-clock times), so commit a new one only on purpose:
// every layout, and so every number of the benchmark, moves with it.
func captureCalibration(dir string) error {
	const rows, layouts, queries = 200_000, 5, 50
	rng := rand.New(rand.NewSource(frozenModelSeed))
	cf := calibrationFile{
		Note:     fmt.Sprintf("captured by -capture-calibration on %s: sales+tpch, %d rows, %d random layouts x %d standard queries each; targets in ns per cell (wp, wr) and per scanned point (ws)", hostLine(), rows, layouts, queries),
		Features: []string{"Nc", "Ns", "TotalCells", "AvgCellSize", "DimsFiltered", "AvgVisitedPerCell", "ExactFraction", "SortFiltered"},
	}
	for _, name := range []string{"sales", "tpch"} {
		ds := datagen.ByName(name, rows, dataSeed)
		qs := datagen.StandardWorkload(ds, queries, dataSeed+1)
		for li := 0; li < layouts; li++ {
			idx, err := core.Build(ds.Table, randomLayout(rng, ds.Table.NumCols(), rows), core.Options{})
			if err != nil {
				return err
			}
			agg := flood.NewCount()
			for _, q := range qs {
				agg.Reset()
				st := idx.Execute(q, agg)
				f := costmodel.Measured(idx, q, st)
				s := calibrationSample{X: f.Vector()}
				if st.CellsVisited > 0 {
					v := float64(st.ProjectTime.Nanoseconds()) / f.Nc
					s.WP = &v
					if st.RangesRefined > 0 {
						v := float64(st.RefineTime.Nanoseconds()) / f.Nc
						s.WR = &v
					}
				}
				if st.Scanned > 0 {
					v := float64(st.ScanTime.Nanoseconds()) / f.Ns
					s.WS = &v
				}
				cf.Samples = append(cf.Samples, s)
			}
		}
	}
	// One sample per line keeps the committed file diffable.
	var out bytes.Buffer
	head, _ := json.Marshal(struct {
		Note     string   `json:"note"`
		Features []string `json:"features"`
	}{cf.Note, cf.Features})
	out.Write(head[:len(head)-1])
	out.WriteString(",\n\"samples\":[\n")
	for i, s := range cf.Samples {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		out.Write(line)
		if i < len(cf.Samples)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]}\n")
	path := filepath.Join(dir, "calibration.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples\n", path, len(cf.Samples))
	return nil
}
