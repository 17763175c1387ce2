package bench

import (
	"fmt"
	"time"

	"flood/internal/baseline"
	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/dataset"
	"flood/internal/optimizer"
	"flood/internal/query"
	"flood/internal/workload"
)

// env bundles a dataset with its train/test workloads, selectivity order,
// and a lazily calibrated cost model.
type env struct {
	cfg   Config
	ds    *dataset.Dataset
	train []query.Query
	test  []query.Query
	order []int // dims most selective first (for baseline tuning)
	model *costmodel.Model
}

func newEnv(cfg Config, dsName string) (*env, error) {
	ds := dataset.ByName(dsName, cfg.Scale, cfg.Seed)
	if ds == nil {
		return nil, fmt.Errorf("bench: unknown dataset %q", dsName)
	}
	return newEnvFor(cfg, ds, workload.Standard(ds, 2*cfg.Queries, cfg.Seed+1))
}

// newEnvFor wraps an explicit dataset and workload (used by sweeps).
func newEnvFor(cfg Config, ds *dataset.Dataset, queries []query.Query) (*env, error) {
	train, test := workload.SplitTrainTest(queries, 0.5, cfg.Seed+2)
	g := workload.NewGenerator(ds, cfg.Seed+3)
	return &env{
		cfg:   cfg,
		ds:    ds,
		train: train,
		test:  test,
		order: workload.OrderBySelectivity(g, train),
	}, nil
}

// costModel calibrates lazily and caches.
func (e *env) costModel() (*costmodel.Model, error) {
	if e.model != nil {
		return e.model, nil
	}
	m, err := costmodel.Calibrate(e.ds.Table, capQueries(e.train, 40), costmodel.CalibrationConfig{
		NumLayouts: e.cfg.CalibrationLayouts,
		Seed:       e.cfg.Seed + 4,
	})
	if err != nil {
		return nil, err
	}
	e.model = m
	return m, nil
}

// buildFlood learns a layout on the training workload and builds the index,
// reporting learning and loading time separately (Table 4).
func (e *env) buildFlood(train []query.Query) (*core.Flood, time.Duration, time.Duration, error) {
	m, err := e.costModel()
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	res, err := optimizer.FindOptimalLayout(e.ds.Table, train, m, optimizer.Config{
		Seed:    e.cfg.Seed + 5,
		GDSteps: gdSteps(e.cfg),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	learn := time.Since(t0)
	t1 := time.Now()
	idx, err := core.Build(e.ds.Table, res.Layout, core.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	return idx, learn, time.Since(t1), nil
}

func gdSteps(cfg Config) int {
	if cfg.Fast {
		return 8
	}
	return 16
}

// baselineKinds lists the baselines of Fig. 7 in presentation order.
func baselineKinds() []baseline.Kind {
	return []baseline.Kind{baseline.FullScan, baseline.Clustered, baseline.RStarTree, baseline.ZOrder,
		baseline.UBTree, baseline.Hyperoctree, baseline.KDTree, baseline.GridFile}
}

// indexLabels lists the report columns: every baseline under its kind's
// spelling, then Flood.
func indexLabels() []string {
	var cols []string
	for _, k := range baselineKinds() {
		cols = append(cols, string(k))
	}
	return append(cols, "Flood")
}

// buildBaseline constructs and page-size-tunes one baseline ("manually
// optimized for each workload", §7.4). Construction failures (e.g. Grid
// File directory explosions on skewed data) are reported as errors so
// callers can print N/A, matching the paper's omissions.
func (e *env) buildBaseline(kind baseline.Kind) (query.Index, time.Duration, error) {
	pages := e.cfg.PageSizes
	if kind == baseline.FullScan || kind == baseline.Clustered {
		pages = pages[:1]
	}
	if e.cfg.Fast && len(pages) > 1 {
		pages = pages[:1]
	}
	tuneQ := capQueries(e.train, 15)
	var (
		bestIdx  query.Index
		bestTime time.Duration
		buildDur time.Duration
	)
	for _, p := range pages {
		t0 := time.Now()
		idx, err := baseline.Build(kind, e.ds.Table, e.order, p)
		if err != nil {
			if bestIdx == nil && p == pages[len(pages)-1] {
				return nil, 0, err
			}
			continue
		}
		d := time.Since(t0)
		r := run(idx, tuneQ)
		if bestIdx == nil || r.AvgTotal < bestTime {
			bestIdx, bestTime, buildDur = idx, r.AvgTotal, d
		}
	}
	if bestIdx == nil {
		return nil, 0, fmt.Errorf("bench: %s failed to build at any page size", kind)
	}
	return bestIdx, buildDur, nil
}

// RunResult aggregates a workload execution over one index.
type RunResult struct {
	Queries  int
	AvgTotal time.Duration
	AvgScan  time.Duration
	AvgIndex time.Duration
	Scanned  int64
	Matched  int64
	Exact    int64
}

// SO is the scan overhead (Table 2).
func (r RunResult) SO() float64 {
	if r.Matched == 0 {
		return float64(r.Scanned)
	}
	return float64(r.Scanned) / float64(r.Matched)
}

// TPS is the average scan time per scanned point in nanoseconds (Table 2).
func (r RunResult) TPS() float64 {
	if r.Scanned == 0 {
		return 0
	}
	return float64(r.AvgScan.Nanoseconds()) * float64(r.Queries) / float64(r.Scanned)
}

// executor is what the experiments need of an index under measurement, Flood
// or baseline: run one query, report the index's size.
type executor interface {
	Execute(q query.Query, agg query.Aggregator) query.Stats
	SizeBytes() int64
}

// run executes queries against idx and aggregates stats.
func run(idx executor, queries []query.Query) RunResult {
	var res RunResult
	agg := query.NewCount()
	var total query.Stats
	for _, q := range queries {
		agg.Reset()
		st := idx.Execute(q, agg)
		total.Add(st)
	}
	n := len(queries)
	if n == 0 {
		return res
	}
	res.Queries = n
	res.AvgTotal = total.Total / time.Duration(n)
	res.AvgScan = total.ScanTime / time.Duration(n)
	res.AvgIndex = total.IndexTime / time.Duration(n)
	res.Scanned = total.Scanned
	res.Matched = total.Matched
	res.Exact = total.ExactMatched
	return res
}

func capQueries(qs []query.Query, n int) []query.Query {
	if len(qs) <= n {
		return qs
	}
	return qs[:n]
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

func fmtBytes(b int64) string {
	switch {
	case b < 10*1024:
		return fmt.Sprintf("%dB", b)
	case b < 10*1024*1024:
		return fmt.Sprintf("%.1fKB", float64(b)/1024)
	case b < 10*1024*1024*1024:
		return fmt.Sprintf("%.1fMB", float64(b)/(1024*1024))
	default:
		return fmt.Sprintf("%.1fGB", float64(b)/(1024*1024*1024))
	}
}
