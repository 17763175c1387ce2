package bench

import (
	"fmt"
	"sort"
	"text/tabwriter"
	"time"

	"flood/internal/baseline"
	"flood/internal/query"
	"flood/internal/workload"
)

func init() {
	register("fig9", "Fig. 9: robustness across workload archetypes", runFig9)
	register("fig10", "Fig. 10: adapting to random workload shifts", runFig10)
}

// runFig9 keeps the baselines tuned for the Fig. 7 workload and confronts
// them (and a relearning Flood) with the eight workload archetypes.
func runFig9(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 9: query time across workload archetypes")
	names := []string{"tpch", "osm"}
	if cfg.Fast {
		names = names[:1]
	}
	kinds := workload.Archetypes()
	if cfg.Fast {
		kinds = kinds[:4]
	}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		bs, err := e.buildAll() // baselines tuned for the standard workload
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n-- %s --\n", name)
		w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "index")
		for _, k := range kinds {
			fmt.Fprintf(w, "\t%s", k)
		}
		fmt.Fprintln(w)
		rows := map[string][]string{}
		for _, kind := range kinds {
			qs := workload.Archetype(e.ds, kind, cfg.Queries, cfg.Seed+int64(len(kind)))
			train, test := workload.SplitTrainTest(qs, 0.5, cfg.Seed+7)
			for _, k := range bs.order {
				if k == "Flood" {
					continue
				}
				if idx, ok := bs.idx[k]; ok {
					rows[k] = append(rows[k], fmtDur(run(idx, test).AvgTotal))
				} else {
					rows[k] = append(rows[k], "N/A")
				}
			}
			// Flood self-optimizes for each archetype.
			fl, _, _, err := e.buildFlood(train)
			if err != nil {
				return err
			}
			rows["Flood"] = append(rows["Flood"], fmtDur(run(fl, test).AvgTotal))
		}
		for _, k := range bs.order {
			fmt.Fprintf(w, "%s", k)
			for _, v := range rows[k] {
				fmt.Fprintf(w, "\t%s", v)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runFig10 generates random workloads; baselines stay tuned for the
// standard workload while Flood relearns per workload, reporting the
// retraining time and the median improvement over the best baseline.
func runFig10(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 10: random workload sequence (baselines static, Flood relearns)")
	e, err := newEnv(cfg, "tpch")
	if err != nil {
		return err
	}
	bs, err := e.buildAll()
	if err != nil {
		return err
	}
	nWorkloads := 8
	if cfg.Fast {
		nWorkloads = 3
	}
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "workload")
	compare := []baseline.Kind{baseline.ZOrder, baseline.UBTree, baseline.Hyperoctree, baseline.KDTree, baseline.GridFile}
	for _, k := range compare {
		fmt.Fprintf(w, "\t%s", k)
	}
	fmt.Fprintln(w, "\tFlood\trelearn\tbest-baseline/Flood")
	var ratios []float64
	for wl := 0; wl < nWorkloads; wl++ {
		qs := workload.Random(e.ds, cfg.Queries, cfg.Seed+100+int64(wl))
		train, test := workload.SplitTrainTest(qs, 0.5, cfg.Seed+8)
		fmt.Fprintf(w, "%d", wl)
		best := time.Duration(1<<62 - 1)
		for _, k := range compare {
			idx, ok := bs.idx[string(k)]
			if !ok {
				fmt.Fprint(w, "\tN/A")
				continue
			}
			r := run(idx, test)
			if r.AvgTotal < best {
				best = r.AvgTotal
			}
			fmt.Fprintf(w, "\t%s", fmtDur(r.AvgTotal))
		}
		t0 := time.Now()
		fl, _, _, err := e.buildFlood(train)
		if err != nil {
			return err
		}
		relearn := time.Since(t0)
		fr := run(fl, test)
		ratio := float64(best) / float64(fr.AvgTotal)
		ratios = append(ratios, ratio)
		fmt.Fprintf(w, "\t%s\t%s\t%.1fx\n", fmtDur(fr.AvgTotal), fmtDur(relearn), ratio)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	sort.Float64s(ratios)
	fmt.Fprintf(cfg.Out, "median improvement over best static baseline: %.1fx\n", ratios[len(ratios)/2])
	return nil
}

var _ = []query.Query(nil)
