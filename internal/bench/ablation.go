package bench

import (
	"fmt"
	"text/tabwriter"

	"flood/internal/core"
	"flood/internal/optimizer"
)

func init() {
	register("fig11", "Fig. 11: ablation (Simple Grid -> +Sort Dim -> +Flattening -> +Learning)", runFig11)
	register("fig14", "Fig. 14: cells vs scan/index time trade-off and the learned optimum", runFig14)
}

// runFig11 measures the incremental benefit of Flood's components (§7.4):
// a selectivity-proportioned simple grid, adding a sort dimension, adding
// flattening, and finally learning the layout from the workload.
func runFig11(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 11: component ablation, average query time")
	names := datasetNames()
	if cfg.Fast {
		names = names[:2]
	}
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "variant")
	for _, n := range names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	rows := map[string][]string{}
	variants := []string{"Simple Grid", "+Sort Dim", "+Flattening", "+Learning"}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		learnedIdx, _, _, err := e.buildFlood(e.train)
		if err != nil {
			return err
		}
		learned := learnedIdx.Layout()
		budget := float64(learned.NumCells())
		if budget < 64 {
			budget = 64
		}
		sg := optimizer.SimpleGridLayout(e.ds.Table, e.train, budget, cfg.Seed+9)
		layouts := map[string]core.Layout{
			"Simple Grid": sg,
			"+Sort Dim":   withSortDim(sg, learned.SortDim, false),
			"+Flattening": withSortDim(sg, learned.SortDim, true),
			"+Learning":   learned,
		}
		for _, v := range variants {
			var r runResult
			if v == "+Learning" {
				r = run(learnedIdx, e.test)
			} else {
				idx, err := core.Build(e.ds.Table, layouts[v], core.Options{})
				if err != nil {
					return err
				}
				r = run(idx, e.test)
			}
			rows[v] = append(rows[v], fmtDur(r.AvgTotal))
		}
	}
	for _, v := range variants {
		fmt.Fprintf(w, "%s", v)
		for _, t := range rows[v] {
			fmt.Fprintf(w, "\t%s", t)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// withSortDim converts a simple grid into the "+Sort Dim" ablation variant:
// the given dimension leaves the grid and becomes the in-cell sort order.
func withSortDim(sg core.Layout, sortDim int, flatten bool) core.Layout {
	v := core.Layout{SortDim: sortDim, Flatten: flatten}
	for i, d := range sg.GridDims {
		if d == sortDim {
			continue
		}
		v.GridDims = append(v.GridDims, d)
		v.GridCols = append(v.GridCols, sg.GridCols[i])
	}
	if len(v.GridDims) == 0 && sortDim == -1 {
		return sg
	}
	return v
}

// runFig14 scales the learned layout's column counts proportionally and
// reports how scan time falls while index (projection+refinement) time
// rises, checking that the learned optimum sits near the measured minimum.
func runFig14(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 14: number of cells vs per-phase query time (TPC-H)")
	e, err := newEnv(cfg, "tpch")
	if err != nil {
		return err
	}
	learnedIdx, _, _, err := e.buildFlood(e.train)
	if err != nil {
		return err
	}
	learned := learnedIdx.Layout()
	factors := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	if cfg.Fast {
		factors = []float64{0.25, 1, 4}
	}
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "cells\tfactor\tquery time\tscan time\tindex time\tscan overhead")
	type point struct {
		factor float64
		total  float64
	}
	var pts []point
	for _, f := range factors {
		l := scaleLayout(learned, f)
		idx, err := core.Build(e.ds.Table, l, core.Options{})
		if err != nil {
			return err
		}
		r := run(idx, e.test)
		mark := ""
		if f == 1 {
			mark = "  <- learned optimum"
		}
		fmt.Fprintf(w, "%d\tx%.3g\t%s\t%s\t%s\t%.2f%s\n",
			l.NumCells(), f, fmtDur(r.AvgTotal), fmtDur(r.AvgScan), fmtDur(r.AvgIndex), r.SO(), mark)
		pts = append(pts, point{f, float64(r.AvgTotal)})
	}
	if err := w.Flush(); err != nil {
		return err
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.total < best.total {
			best = p
		}
	}
	fmt.Fprintf(cfg.Out, "measured minimum at factor x%.3g (learned layout is x1)\n", best.factor)
	return nil
}
