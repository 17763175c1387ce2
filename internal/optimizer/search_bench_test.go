package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"flood/internal/costmodel"
	"flood/internal/dataset"
	"flood/internal/rforest"
	"flood/internal/workload"
)

// syntheticModel trains the three weight forests on made-up weight surfaces
// with fixed seeds, so searches over it repeat bit for bit on one machine —
// unlike a calibrated model, whose targets are wall-clock timings.
func syntheticModel(tb testing.TB) *costmodel.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(71))
	const samples = 600
	x := make([][]float64, samples)
	wp, wr, ws := make([]float64, samples), make([]float64, samples), make([]float64, samples)
	for i := range x {
		cells := math.Exp(rng.Float64() * math.Log(50000))
		nc := math.Max(1, cells*math.Pow(rng.Float64(), 3))
		ns := nc * math.Exp(rng.Float64()*6)
		f := costmodel.Features{
			Nc: nc, Ns: ns, TotalCells: cells, AvgCellSize: 100000 / cells,
			DimsFiltered: float64(1 + rng.Intn(3)), AvgVisitedPerCell: ns / nc,
			ExactFraction: rng.Float64(), SortFiltered: float64(rng.Intn(2)),
		}
		x[i] = f.Vector()
		wp[i] = 40 + 300/(1+nc/50)
		wr[i] = 80 + 20*math.Log1p(f.AvgCellSize)
		ws[i] = 1 + 6*(1-f.ExactFraction) + 30/(1+f.AvgVisitedPerCell)
	}
	cfg := rforest.DefaultConfig()
	m := &costmodel.Model{}
	for i, t := range []struct {
		forest **rforest.Forest
		y      []float64
	}{{&m.WP, wp}, {&m.WR, wr}, {&m.WS, ws}} {
		cfg.Seed = int64(72 + i)
		f, err := rforest.Train(x, t.y, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		*t.forest = f
	}
	return m
}

// BenchmarkFindOptimalLayout times one layout search over 100k TPC-H rows at
// the effort benchmark/ uses (5 steps x 25 queries) and at the optimizer's own
// defaults (20 x 50).
func BenchmarkFindOptimalLayout(b *testing.B) {
	ds := dataset.TPCH(100000, 81)
	queries := workload.Standard(ds, 100, 82)
	m := syntheticModel(b)
	for _, effort := range []struct {
		name string
		cfg  Config
	}{
		{"steps5x25", Config{Seed: 83, GDSteps: 5, QuerySampleSize: 25}},
		{"default20x50", Config{Seed: 83}},
	} {
		b.Run(effort.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FindOptimalLayout(ds.Table, queries, m, effort.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
