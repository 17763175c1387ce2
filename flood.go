// Package flood is a learned multi-dimensional in-memory index, a Go
// implementation of "Learning Multi-dimensional Indexes" (Nathan, Ding,
// Alizadeh, Kraska — SIGMOD 2020).
//
// Flood speeds up analytical range scans with predicates over several
// attributes by jointly optimizing the data storage layout and the index
// structure for a target dataset and query workload. It lays the table out
// as a d-1 dimensional grid whose column boundaries are learned from the
// data's per-dimension CDFs ("flattening") and whose shape — which dimension
// sorts each cell, and how many columns each grid dimension gets — is chosen
// by gradient descent over a machine-learned cost model trained on a sample
// workload.
//
// Basic usage — declare a typed schema, load rows, build, and query for
// aggregates or for the matching rows themselves:
//
//	s := flood.NewSchema().Int64("ts").Float64("fare", 2).String("city")
//	b := s.NewTableBuilder()
//	b.AppendRow(int64(1000), 12.50, "nyc")          // ... one call per row
//	tbl, _ := b.Build()                             // fits dicts + scalers
//	idx, _ := flood.Build(tbl, trainQueries, &flood.Options{Schema: s})
//
//	q := s.Where().WithStringEquals("city", "nyc").
//		WithFloatRange("fare", 1.5, 9.99).Query()
//	stats := idx.Execute(q, flood.NewCount())       // aggregate ...
//	rows, _ := idx.Select(q, "city", "fare")        // ... or retrieve rows
//	for rows.Next() { _ = rows.String(0); _ = rows.Float64(1) }
//	rows.Close()
//
// Tables can also be built directly from int64 column-major data with
// NewTable, skipping the schema; Select then serves raw int64 values.
//
// Serving code bounds every query with the context-aware twins of each
// entry point: ExecuteContext and SelectContext honor cancellation and
// deadlines (stopping cooperatively mid-scan with ErrCanceled and partial
// Stats), and QueryOptions.Limit is pushed down into the scan kernel so a
// LIMIT k retrieval stops at the k-th match instead of materializing the
// full result.
//
// For production serving, AdaptiveIndex wraps a built index in the adaptive
// lifecycle of §8: it serves queries and inserts concurrently, samples the
// live workload, detects drift over a sliding window, relearns the layout in
// the background, and swaps the fresh index in atomically with zero downtime.
// ShardedIndex partitions the table across independent adaptive shards, and
// Save/Load persist a built index. Those are the three facades, and every one
// serves the same query surface: Execute, ExecuteBatch, ExecuteOr, Select,
// and their context-aware twins. Durability is where a mutable store lives,
// not a fourth facade: CreateDurable and CreateShardedDurable put one over a
// directory with a write-ahead log and checkpoints, OpenStore reopens
// whichever a directory holds, and Store is the one lifecycle contract —
// stats, wait, checkpoint, close — both mutable facades implement in either
// form.
//
// The single-writer delta facade of earlier versions is gone; AdaptiveIndex
// with automatic merges off subsumes it:
//
//	its constructor (f, n) → NewAdaptiveIndex(f, &AdaptiveConfig{MergeFraction: -1})
//	Merge()                → TriggerMerge() then Wait()
//	Base()                 → Index()
//	Pending()              → Stats().PendingRows
//
// The package also exposes the paper's eight baseline multi-dimensional
// indexes (see BuildBaseline) on the same column-store substrate, which is
// what the benchmark harness in cmd/floodbench uses to regenerate the
// paper's evaluation. Architecture and lifecycle documentation lives under
// docs/ in the repository.
package flood

import (
	"fmt"

	"flood/internal/colstore"
	"flood/internal/core"
	"flood/internal/costmodel"
	"flood/internal/optimizer"
	"flood/internal/query"
)

// Table is an immutable in-memory column store with block-delta compression
// (128-value blocks, §7.1). All values are int64: encode strings with a
// dictionary and scale decimals to integers before loading.
type Table = colstore.Table

// NewTable builds a table from column-major int64 data, compressing the
// columns in parallel on the worker pool. Every column must have the same
// length; the columns are not retained.
func NewTable(names []string, cols [][]int64) (*Table, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("flood: %d names for %d columns", len(names), len(cols))
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("flood: table must have at least one column")
	}
	n := len(cols[0])
	return newTable(names, n, func(c int) ([]int64, error) {
		if len(cols[c]) != n {
			return nil, fmt.Errorf("flood: column %q has %d rows, want %d", names[c], len(cols[c]), n)
		}
		return cols[c], nil
	})
}

// newTable assembles a table of n rows as one pool task per column: column
// c's task calls col(c) and compresses what it returns, which is not
// retained. It is the one way the facade makes a table (NewTable,
// TableBuilder.Build). The error is the lowest-numbered failing column's.
func newTable(names []string, n int, col func(c int) ([]int64, error)) (*Table, error) {
	w := colstore.NewTableWriter(names, n, 0)
	errs := make([]error, len(names))
	core.RunBatch(len(names), func(c int) {
		raw, err := col(c)
		if err != nil {
			errs[c] = err
			return
		}
		w.SetColumn(c, raw, nil, false)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return w.Table(), nil
}

// Query is a conjunction of per-dimension ranges (a hyper-rectangle).
type Query = query.Query

// Range is one inclusive filter interval.
type Range = query.Range

// Stats instruments one query execution (scan overhead, per-phase times).
type Stats = query.Stats

// BlockBitmap is the selection bitmap of one 128-row storage block: bit i
// set means row i of the block matches. The scan stage hands an Aggregator
// the survivors of a filtered block in this form.
type BlockBitmap = colstore.BlockBitmap

// Aggregator accumulates a statistic over matching rows. The scan stage calls
// AddBlock with the survivors of each filtered block as a BlockBitmap, and
// AddExactRange with each run of rows known to match without a check; the
// built-in aggregators (NewCount, NewSum, NewMin, NewMax) aggregate under the
// mask on the packed column data.
type Aggregator = query.Aggregator

// Index is the contract shared by Flood and every baseline.
type Index = query.Index

// Layout describes a Flood grid shape; obtain one from a built index via
// Layout(), or construct manually for BuildWithLayout.
type Layout = core.Layout

// CostModel is a calibrated query-time model, reusable across datasets
// (§7.6, Table 3).
type CostModel = costmodel.Model

// Unbounded range endpoints: a one-sided filter spans to NegInf or PosInf
// (§3.2.1).
const (
	NegInf = query.NegInf
	PosInf = query.PosInf
)

// NewQuery returns an unfiltered query over nDims dimensions. Add filters
// with WithRange / WithEquals.
func NewQuery(nDims int) Query { return query.NewQuery(nDims) }

// NewCount returns a COUNT(*) aggregator.
func NewCount() Aggregator { return query.NewCount() }

// NewSum returns a SUM(col) aggregator. Call Table.EnableAggregate(col)
// first to let exact sub-ranges resolve via cumulative aggregates (§7.1).
func NewSum(col int) Aggregator { return query.NewSum(col) }

// NewMin returns a MIN(col) aggregator.
func NewMin(col int) Aggregator { return query.NewMin(col) }

// NewMax returns a MAX(col) aggregator.
func NewMax(col int) Aggregator { return query.NewMax(col) }

// Options tunes learned-index construction. The zero value (or nil) picks
// the paper's defaults.
type Options struct {
	// CostModel reuses a previously calibrated model; nil calibrates one
	// on the build table and workload (slower but self-contained).
	CostModel *CostModel
	// CalibrationLayouts is the number of random layouts used when
	// calibrating (default 10, §4.1.1).
	CalibrationLayouts int
	// QuerySampleSize bounds the layout search's workload sample (§7.7;
	// default 50 queries). Its data sample is always 2000 rows.
	QuerySampleSize int
	// GDSteps is the number of gradient-descent steps per restart.
	GDSteps int
	// BitmapIndexMaxCardinality is the largest per-column value spread
	// (max-min+1) for which Build creates a bitmap index. Residual filters
	// on bitmap-indexed columns — dictionary-coded strings, enums, flags —
	// resolve from two precomputed (interval-encoded) bitmaps in the scan
	// kernel, whatever the width of the range, instead of a compare pass
	// over the column. 0 picks the default (64 distinct values); negative
	// disables bitmap indexes.
	BitmapIndexMaxCardinality int
	// Schema attaches the typed schema the table was built with, enabling
	// typed accessors on Select results. Wrappers constructed from the index
	// (NewAdaptiveIndex, CreateDurable) inherit it.
	Schema *Schema
	// Seed makes builds reproducible.
	Seed int64
}

func (o Options) coreOptions() core.Options {
	return core.Options{BitmapMaxCardinality: o.BitmapIndexMaxCardinality}
}

func (o *Options) orDefault() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// Flood is a built learned index. It is read-only after Build (deletes
// aside), so every query method may be called from any number of
// goroutines.
type Flood struct {
	surface
	idx    *core.Flood
	result optimizer.Result
	model  *CostModel
}

// newFlood wraps a built core index in the public handle.
func newFlood(idx *core.Flood, res optimizer.Result, m *CostModel, s *Schema) *Flood {
	f := &Flood{idx: idx, result: res, model: m}
	f.surface = newSurface(f, s, idx.Table().Names())
	return f
}

// Build learns a layout for tbl from the sample workload and constructs the
// index. The input table is not modified; the index holds a reordered copy.
func Build(tbl *Table, train []Query, opts *Options) (*Flood, error) {
	o := opts.orDefault()
	if len(train) == 0 {
		return nil, fmt.Errorf("flood: Build needs a sample query workload; use BuildWithLayout for manual layouts")
	}
	m := o.CostModel
	if m == nil {
		var err error
		m, err = costmodel.Calibrate(tbl, train, costmodel.CalibrationConfig{
			NumLayouts: o.CalibrationLayouts,
			Seed:       o.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("flood: calibrating cost model: %w", err)
		}
	}
	res, err := optimizer.FindOptimalLayout(tbl, train, m, optimizer.Config{
		QuerySampleSize: o.QuerySampleSize,
		GDSteps:         o.GDSteps,
		Seed:            o.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("flood: optimizing layout: %w", err)
	}
	idx, err := core.Build(tbl, res.Layout, o.coreOptions())
	if err != nil {
		return nil, fmt.Errorf("flood: building layout: %w", err)
	}
	return newFlood(idx, res, m, o.Schema), nil
}

// Calibrate trains a reusable cost model on any dataset and workload
// (possibly synthetic); calibration is a once-per-machine cost (§7.6).
func Calibrate(tbl *Table, queries []Query, opts *Options) (*CostModel, error) {
	o := opts.orDefault()
	return costmodel.Calibrate(tbl, queries, costmodel.CalibrationConfig{
		NumLayouts: o.CalibrationLayouts,
		Seed:       o.Seed,
	})
}

// BuildWithLayout constructs a Flood index with an explicit layout, skipping
// learning. Useful for ablations and tests.
func BuildWithLayout(tbl *Table, layout Layout, opts *Options) (*Flood, error) {
	o := opts.orDefault()
	idx, err := core.Build(tbl, layout, o.coreOptions())
	if err != nil {
		return nil, err
	}
	return newFlood(idx, optimizer.Result{Layout: layout}, nil, o.Schema), nil
}

// Name implements Index.
func (f *Flood) Name() string { return f.idx.Name() }

// SizeBytes reports index metadata size (cell table + each grid
// dimension's step points), excluding the stored data.
func (f *Flood) SizeBytes() int64 { return f.idx.SizeBytes() }

// Layout returns the (learned or supplied) layout.
func (f *Flood) Layout() Layout { return f.idx.Layout() }

// Model returns the cost model used to learn the layout (nil when the index
// was built with BuildWithLayout).
func (f *Flood) Model() *CostModel { return f.model }

// PredictedCost returns the model's predicted average query time in
// nanoseconds (0 when the layout was supplied manually).
func (f *Flood) PredictedCost() float64 { return f.result.PredictedCost }

// Table returns the index's reordered copy of the data.
func (f *Flood) Table() *Table { return f.idx.Table() }

var (
	_ Index            = (*Flood)(nil)
	_ query.BatchIndex = (*Flood)(nil)
)
