package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"flood/internal/baseline"
	"flood/internal/core"
)

// builtSet holds every index of Fig. 7 built and tuned for one dataset.
type builtSet struct {
	order      []string // presentation order, Flood last
	idx        map[string]executor
	buildErr   map[string]error
	buildTime  map[string]time.Duration
	floodLearn time.Duration
	floodLoad  time.Duration
	flood      *core.Flood
}

// buildAll constructs the full index suite: baselines tuned on the training
// workload (§7.4 "we tuned the baseline approaches as much as possible per
// workload") plus Flood learned from it.
func (e *env) buildAll() (*builtSet, error) {
	bs := &builtSet{
		idx:       map[string]executor{},
		buildErr:  map[string]error{},
		buildTime: map[string]time.Duration{},
	}
	for _, kind := range baselineKinds() {
		idx, d, err := e.buildBaseline(kind)
		if err != nil {
			bs.buildErr[string(kind)] = err
		} else {
			bs.idx[string(kind)] = idx
			bs.buildTime[string(kind)] = d
		}
		bs.order = append(bs.order, string(kind))
	}
	fl, learn, load, err := e.buildFlood(e.train)
	if err != nil {
		return nil, fmt.Errorf("building Flood: %w", err)
	}
	bs.flood = fl
	bs.floodLearn, bs.floodLoad = learn, load
	bs.idx["Flood"] = fl
	bs.buildTime["Flood"] = learn + load
	bs.order = append(bs.order, "Flood")
	return bs, nil
}

func init() {
	register("table1", "Table 1: dataset and query characteristics", runTable1)
	register("fig7", "Fig. 7: overall query time, Flood vs all baselines", runFig7)
	register("table2", "Table 2: performance breakdown (SO, TPS, ST, IT, TT)", runTable2)
	register("table4", "Table 4: index creation time", runTable4)
}

func runTable1(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Table 1: dataset and query characteristics (bench scale)")
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\trecords\tqueries\tdimensions\tsize (compressed)\tsize (raw)")
	for _, name := range datasetNames() {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\n",
			name, e.ds.Table.NumRows(), len(e.train)+len(e.test), e.ds.Table.NumCols(),
			fmtBytes(e.ds.Table.SizeBytes()), fmtBytes(e.ds.Table.UncompressedSizeBytes()))
	}
	return w.Flush()
}

func datasetNames() []string {
	return []string{"sales", "tpch", "osm", "perfmon"}
}

func runFig7(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Fig. 7: average query time per index per dataset")
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "index")
	names := datasetNames()
	if cfg.Fast {
		names = names[:2]
	}
	for _, n := range names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	results := map[string]map[string]string{}
	var order []string
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		order = bs.order
		for _, k := range bs.order {
			if results[k] == nil {
				results[k] = map[string]string{}
			}
			if idx, ok := bs.idx[k]; ok {
				r := run(idx, e.test)
				results[k][name] = fmtDur(r.AvgTotal)
			} else {
				results[k][name] = "N/A"
			}
		}
	}
	for _, k := range order {
		fmt.Fprintf(w, "%s", k)
		for _, n := range names {
			fmt.Fprintf(w, "\t%s", results[k][n])
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runTable2(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Table 2: performance breakdown")
	names := datasetNames()
	if cfg.Fast {
		names = names[:1]
	}
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n-- %s --\n", name)
		w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "index\tSO\tTPS(ns)\tST\tIT\tTT")
		for _, k := range bs.order {
			idx, ok := bs.idx[k]
			if !ok {
				fmt.Fprintf(w, "%s\tN/A\tN/A\tN/A\tN/A\tN/A\n", k)
				continue
			}
			r := run(idx, e.test)
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%s\t%s\t%s\n",
				k, r.SO(), r.TPS(), fmtDur(r.AvgScan), fmtDur(r.AvgIndex), fmtDur(r.AvgTotal))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func runTable4(cfg Config) error {
	cfg = cfg.WithDefaults()
	header(cfg.Out, "Table 4: index creation time (seconds)")
	names := datasetNames()
	if cfg.Fast {
		names = names[:2]
	}
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "index")
	for _, n := range names {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	rows := map[string]map[string]string{}
	var order []string
	for _, name := range names {
		e, err := newEnv(cfg, name)
		if err != nil {
			return err
		}
		bs, err := e.buildAll()
		if err != nil {
			return err
		}
		set := func(k, v string) {
			if rows[k] == nil {
				rows[k] = map[string]string{}
				order = append(order, k)
			}
			rows[k][name] = v
		}
		set("Flood Learning", fmt.Sprintf("%.2f", bs.floodLearn.Seconds()))
		set("Flood Loading", fmt.Sprintf("%.2f", bs.floodLoad.Seconds()))
		set("Flood Total", fmt.Sprintf("%.2f", (bs.floodLearn+bs.floodLoad).Seconds()))
		for _, kind := range baselineKinds() {
			k := string(kind)
			if kind == baseline.FullScan {
				continue
			}
			if _, ok := bs.idx[k]; !ok {
				set(k, "N/A")
				continue
			}
			set(k, fmt.Sprintf("%.2f", bs.buildTime[k].Seconds()))
		}
	}
	seen := map[string]bool{}
	for _, k := range order {
		if seen[k] {
			continue
		}
		seen[k] = true
		fmt.Fprintf(w, "%s", k)
		for _, n := range names {
			v := rows[k][n]
			if v == "" {
				v = "N/A"
			}
			fmt.Fprintf(w, "\t%s", v)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
