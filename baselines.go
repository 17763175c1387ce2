package flood

import (
	"flood/internal/baseline"
	"flood/internal/baseline/plan"
)

// BaselineKind names the baseline indexes of §7.2.
type BaselineKind string

// The available baselines.
const (
	FullScan    = BaselineKind(baseline.FullScan)
	Clustered   = BaselineKind(baseline.Clustered)
	GridFile    = BaselineKind(baseline.GridFile)
	ZOrder      = BaselineKind(baseline.ZOrder)
	UBTree      = BaselineKind(baseline.UBTree)
	Hyperoctree = BaselineKind(baseline.Hyperoctree)
	KDTree      = BaselineKind(baseline.KDTree)
	RStarTree   = BaselineKind(baseline.RStarTree)
)

// baselines lists every baseline kind in the paper's order.
func baselines() []BaselineKind {
	return []BaselineKind{FullScan, Clustered, GridFile, ZOrder, UBTree, Hyperoctree, KDTree, RStarTree}
}

// BaselineOptions tunes baseline construction. Dims orders the indexed
// dimensions from most to least selective — pass the output of a workload
// analysis for a tuned index. PageSize applies to page-based baselines.
type BaselineOptions struct {
	// Dims lists indexed dimensions, most selective first. Defaults to
	// all dimensions in table order.
	Dims []int
	// PageSize bounds pages/buckets/leaves (default per baseline).
	PageSize int
}

// BuildBaseline constructs one of the paper's baseline indexes over tbl on
// the shared column-store substrate, with the same scan optimizations Flood
// enjoys (§7.1): every baseline only plans a query into physical row ranges,
// and those run through the scan stage Flood's own queries end in — pooled
// scanner, bitmap indexes, parallel cutover, cancellation and LIMIT pushdown.
func BuildBaseline(kind BaselineKind, tbl *Table, opts BaselineOptions) (Index, error) {
	dims := opts.Dims
	if len(dims) == 0 {
		dims = make([]int, tbl.NumCols())
		for i := range dims {
			dims[i] = i
		}
	}
	return built(baseline.Build(baseline.Kind(kind), tbl, dims, opts.PageSize))
}

// built keeps a failed build's nil pointer out of the Index interface.
func built(idx *plan.Index, err error) (Index, error) {
	if err != nil {
		return nil, err
	}
	return idx, nil
}
