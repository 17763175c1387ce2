package bench

import (
	"fmt"
	"text/tabwriter"

	"flood/internal/baseline"
	"flood/internal/core"
	"flood/internal/query"
)

func init() {
	register("fig8", "Fig. 8: index size vs query time (Pareto frontier)", runFig8)
}

// runFig8 sweeps each index across its size knob (page size for baselines,
// column budget for Flood) and reports (size, time) points per dataset.
func runFig8(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 8: index size vs average query time")
	names := datasetNames()
	if cfg.Fast {
		names = names[:1]
	}
	pages := []int{256, 1024, 4096, 16384}
	floodFactors := []float64{0.25, 0.5, 1, 2}
	if cfg.Fast {
		pages = []int{512, 4096}
		floodFactors = []float64{0.5, 1}
	}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n-- %s --\n", name)
		w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "index\tknob\tsize\tavg query time")

		// Baselines across page sizes.
		for _, kind := range []baseline.Kind{baseline.ZOrder, baseline.UBTree, baseline.Hyperoctree, baseline.KDTree, baseline.GridFile, baseline.RStarTree} {
			for _, p := range pages {
				idx, err := buildOne(e, kind, p)
				if err != nil {
					fmt.Fprintf(w, "%s\tpage=%d\tN/A\tN/A\n", kind, p)
					continue
				}
				r := run(idx, e.test)
				fmt.Fprintf(w, "%s\tpage=%d\t%s\t%s\n", kind, p, fmtBytes(idx.SizeBytes()), fmtDur(r.AvgTotal))
			}
		}
		// Clustered: one point.
		if idx, _, err := e.buildBaseline(baseline.Clustered); err == nil {
			r := run(idx, e.test)
			fmt.Fprintf(w, "%s\t-\t%s\t%s\n", baseline.Clustered, fmtBytes(idx.SizeBytes()), fmtDur(r.AvgTotal))
		}
		// Flood across cell budgets around the learned layout.
		fl, _, _, err := e.buildFlood(e.train)
		if err != nil {
			return err
		}
		learned := fl.Layout()
		for _, f := range floodFactors {
			l := scaleLayout(learned, f)
			idx, err := core.Build(e.ds.Table, l, core.Options{})
			if err != nil {
				return err
			}
			r := run(idx, e.test)
			fmt.Fprintf(w, "Flood\tcells x%.2g\t%s\t%s\n", f, fmtBytes(idx.SizeBytes()), fmtDur(r.AvgTotal))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// buildOne builds a baseline at an explicit page size (no tuning).
func buildOne(e *env, kind baseline.Kind, page int) (query.Index, error) {
	saved := e.cfg.PageSizes
	e.cfg.PageSizes = []int{page}
	idx, _, err := e.buildBaseline(kind)
	e.cfg.PageSizes = saved
	return idx, err
}

// scaleLayout multiplies every grid dimension's column count by factor
// (minimum 1 column), keeping the other layout choices fixed — the
// proportional scaling of Fig. 14.
func scaleLayout(l core.Layout, factor float64) core.Layout {
	out := l
	out.GridCols = make([]int, len(l.GridCols))
	out.GridDims = append([]int(nil), l.GridDims...)
	for i, c := range l.GridCols {
		nc := int(float64(c)*factor + 0.5)
		if nc < 1 {
			nc = 1
		}
		out.GridCols[i] = nc
	}
	return out
}
