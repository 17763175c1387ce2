package bench

import (
	"fmt"
	"text/tabwriter"

	"flood/internal/baseline"
	"flood/internal/dataset"
	"flood/internal/workload"
)

func init() {
	register("fig12a", "Fig. 12a: query time vs dataset size", runFig12a)
	register("fig12b", "Fig. 12b: query time vs query selectivity", runFig12b)
	register("fig13", "Fig. 13: scaling the number of dimensions", runFig13)
}

// runFig12a subsamples TPC-H to increasing sizes; Flood should scale
// sub-linearly because the learned layout grows its cell count with n.
func runFig12a(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 12a: average query time vs dataset size (TPC-H)")
	sizes := []int{cfg.Scale / 8, cfg.Scale / 4, cfg.Scale / 2, cfg.Scale}
	if cfg.Fast {
		sizes = []int{cfg.Scale / 4, cfg.Scale}
	}
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "records")
	cols := indexLabels()
	for _, k := range cols {
		fmt.Fprintf(w, "\t%s", k)
	}
	fmt.Fprintln(w)
	for _, n := range sizes {
		sub := cfg
		sub.Scale = n
		e, err := newEnv(sub, "tpch")
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d", n)
		for _, k := range cols {
			if idx, ok := bs.idx[k]; ok {
				fmt.Fprintf(w, "\t%s", fmtDur(run(idx, e.test).AvgTotal))
			} else {
				fmt.Fprint(w, "\tN/A")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// runFig12b scales the workload's filter ranges between 0.001% and 10%
// selectivity.
func runFig12b(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 12b: average query time vs query selectivity (TPC-H)")
	sels := []float64{0.00001, 0.0001, 0.001, 0.01, 0.1}
	if cfg.Fast {
		sels = []float64{0.0001, 0.001, 0.01}
	}
	ds := dataset.TPCH(cfg.Scale, cfg.Seed)
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "selectivity")
	cols := indexLabels()
	for _, k := range cols {
		fmt.Fprintf(w, "\t%s", k)
	}
	fmt.Fprintln(w)
	for _, sel := range sels {
		qs := workload.StandardWithSelectivity(ds, 2*cfg.Queries, sel, cfg.Seed+11)
		e, err := newEnvFor(cfg, ds, qs)
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.5f", sel)
		for _, k := range cols {
			if idx, ok := bs.idx[k]; ok {
				fmt.Fprintf(w, "\t%s", fmtDur(run(idx, e.test).AvgTotal))
			} else {
				fmt.Fprint(w, "\tN/A")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// runFig13 runs uniform synthetic data at growing dimensionality; every
// index (Flood least) suffers the curse of dimensionality, measured as the
// ratio to a full scan.
func runFig13(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 13: query time vs number of dimensions (uniform synthetic)")
	dims := []int{4, 8, 12, 16, 18}
	if cfg.Fast {
		dims = []int{4, 8}
	}
	n := cfg.Scale / 2
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	cols := indexLabels()
	fmt.Fprint(w, "d")
	for _, k := range cols {
		fmt.Fprintf(w, "\t%s", k)
	}
	fmt.Fprintln(w, "\tFlood/FullScan ratio")
	for _, d := range dims {
		ds := dataset.Uniform(n, d, cfg.Seed+int64(d))
		qs := workload.Standard(ds, 2*cfg.Queries, cfg.Seed+12)
		e, err := newEnvFor(cfg, ds, qs)
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d", d)
		var fullScan, flood float64
		for _, k := range cols {
			idx, ok := bs.idx[k]
			if !ok {
				fmt.Fprint(w, "\tN/A")
				continue
			}
			r := run(idx, e.test)
			if k == string(baseline.FullScan) {
				fullScan = float64(r.AvgTotal)
			}
			if k == "Flood" {
				flood = float64(r.AvgTotal)
			}
			fmt.Fprintf(w, "\t%s", fmtDur(r.AvgTotal))
		}
		if fullScan > 0 {
			fmt.Fprintf(w, "\t%.3f", flood/fullScan)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
