package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"flood/internal/baseline"
	"flood/internal/core"
	"flood/internal/optimizer"
)

func init() {
	register("fig15", "Fig. 15: sampling the dataset (learning time vs query time)", runFig15)
	register("fig16", "Fig. 16: sampling the query workload", runFig16)
}

// runFig15 sweeps the layout-search data sample size: tiny samples should
// keep query times low while slashing learning time (§7.7).
func runFig15(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 15: data sample size vs learning time and query time")
	names := datasetNames()
	if cfg.Fast {
		names = names[:1]
	}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		m, err := e.costModel()
		if err != nil {
			return err
		}
		// Hyperoctree creation time, the paper's comparison line.
		var octreeDur time.Duration
		if _, d, err := e.buildBaseline(baseline.Hyperoctree); err == nil {
			octreeDur = d
		}
		sizes := []int{500, 2000, 10000, cfg.Scale / 2}
		if cfg.Fast {
			sizes = []int{500, 5000}
		}
		fmt.Fprintf(cfg.Out, "\n-- %s (hyperoctree creation: %s) --\n", name, fmtDur(octreeDur))
		w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "data sample\tlearning time\tresulting query time\tlayout")
		for _, s := range sizes {
			t0 := time.Now()
			res, err := optimizer.FindOptimalLayout(e.ds.Table, e.train, m, optimizer.Config{
				DataSampleSize: s,
				Seed:           cfg.Seed + int64(s),
				GDSteps:        gdSteps(cfg),
			})
			if err != nil {
				return err
			}
			learn := time.Since(t0)
			idx, err := core.Build(e.ds.Table, res.Layout, core.Options{})
			if err != nil {
				return err
			}
			r := run(idx, e.test)
			fmt.Fprintf(w, "%d\t%s\t%s\t%s\n", s, fmtDur(learn), fmtDur(r.AvgTotal), res.Layout)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runFig16 sweeps the query sample size with a fixed small data sample.
func runFig16(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 16: query sample size vs learning time and query time")
	names := datasetNames()
	if cfg.Fast {
		names = names[:1]
	}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		m, err := e.costModel()
		if err != nil {
			return err
		}
		sizes := []int{5, 10, 25, 50}
		if cfg.Fast {
			sizes = []int{5, 25}
		}
		fmt.Fprintf(cfg.Out, "\n-- %s --\n", name)
		w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "query sample\tlearning time\tresulting query time")
		for _, s := range sizes {
			t0 := time.Now()
			res, err := optimizer.FindOptimalLayout(e.ds.Table, e.train, m, optimizer.Config{
				DataSampleSize:  2000,
				QuerySampleSize: s,
				Seed:            cfg.Seed + int64(s),
				GDSteps:         gdSteps(cfg),
			})
			if err != nil {
				return err
			}
			learn := time.Since(t0)
			idx, err := core.Build(e.ds.Table, res.Layout, core.Options{})
			if err != nil {
				return err
			}
			r := run(idx, e.test)
			fmt.Fprintf(w, "%d\t%s\t%s\n", s, fmtDur(learn), fmtDur(r.AvgTotal))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}
